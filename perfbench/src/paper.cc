/**
 * @file
 * Workload "paper": the whole bench_paper evaluation grid (Tables
 * 2-4, the section 3 breakdown and every ablation; 358 cells) as one
 * exp::Experiment on four SweepScheduler workers. The grid is declared
 * here, not borrowed from bench/, so the measured work stays fixed
 * while the benches change; the seed only draws the cell order of
 * every round.
 *
 * An untraced run measures SweepScheduler sweeps. A traced run
 * sweeps once for the exp.* metrics, then alternates rounds that run
 * the same cells as directly driven sessions on threads of the
 * benchmark's own, with spans off and on. Those
 * sessions expose construction time and the processors' component
 * counters.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <thread>

#include "config/machine_shape.hh"
#include "exp/scheduler.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using msim::RunSpec;

struct CellDecl
{
    std::string name;
    std::string workload;
    std::string shape;
    std::set<std::string> defines;
};

const std::vector<std::string> kPrograms = {
    "compress", "eqntott", "espresso", "gcc", "sc",
    "xlisp", "tomcatv", "cmp", "wc", "example",
};
const std::vector<std::string> kSmokePrograms = {"example", "wc", "cmp"};

/**
 * Sweep workers: four, SweepScheduler's default on the 4-core host
 * the benchmark was tuned on, and never more than the host's cores.
 * A grid then takes about 9 s there, so every cell repeats three or
 * four times in a 35 s run; with two workers it repeated twice, too
 * few for its faster quarter to miss the host's slow stretches.
 */
unsigned
sweepWorkers()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/**
 * Table 3 (1-way, in-order) 4-unit and 8-unit speedups reported by
 * the paper, as listed in EXPERIMENTS.md.
 */
const std::map<std::string, std::pair<double, double>> kPaperTable3 = {
    {"compress", {1.17, 1.50}}, {"eqntott", {2.05, 2.91}},
    {"espresso", {1.34, 1.59}}, {"gcc", {1.02, 1.08}},
    {"sc", {1.36, 1.68}},       {"xlisp", {0.91, 0.94}},
    {"tomcatv", {3.00, 4.65}},  {"cmp", {3.23, 6.24}},
    {"wc", {2.37, 4.33}},       {"example", {2.79, 3.96}},
};

std::vector<CellDecl>
paperGrid(bool smoke)
{
    const std::vector<std::string> &names =
        smoke ? kSmokePrograms : kPrograms;
    auto subset = [&](const std::vector<std::string> &set) {
        std::vector<std::string> out;
        for (const std::string &n : set)
            if (std::find(names.begin(), names.end(), n) != names.end())
                out.push_back(n);
        return out;
    };
    std::vector<CellDecl> g;
    auto add = [&](const std::string &name, const std::string &workload,
                   const std::string &shape,
                   std::set<std::string> defines = {}) {
        g.push_back({name, workload, shape, std::move(defines)});
    };
    const std::string u = "unit_", w = "way";
    for (const std::string &n : names) {
        add("table2/" + n + "/scalar", n, "scalar-1w");
        add("table2/" + n + "/multiscalar", n, "ms4-1w");
        for (const auto &[table, ooo] :
             {std::pair<std::string, std::string>{"table3", ""},
              {"table4", "-ooo"}}) {
            for (const std::string width : {"1", "2"}) {
                add(table + "/" + n + "/scalar_" + width + w, n,
                    "scalar-" + width + "w" + ooo);
                for (const std::string units : {"4", "8"})
                    add(table + "/" + n + "/" + units + u + width + w, n,
                        "ms" + units + "-" + width + "w" + ooo);
            }
        }
        add("breakdown/" + n, n, "ms8-1w");
        add("pred/" + n + "/scalar", n, "scalar-1w");
        for (const std::string p : {"pas", "last", "static"})
            add("pred/" + n + "/" + p, n, "pred-" + p);
        add("units/" + n + "/scalar", n, "scalar-1w");
        for (const std::string k : {"1", "2", "4", "8", "16"})
            add("units/" + n + "/" + k, n, "units-" + k);
        for (const std::string bp : {"static", "bimodal"}) {
            const bool bimodal = bp == "bimodal";
            add("bp/" + n + "/scalar_" + bp, n,
                bimodal ? "scalar-bimodal" : "scalar-1w");
            add("bp/" + n + "/ms_" + bp, n,
                bimodal ? "ms8-bimodal" : "ms8-1w");
        }
    }
    for (const std::string &n :
         subset({"wc", "eqntott", "compress", "example"})) {
        add("ring/" + n + "/scalar", n, "scalar-1w");
        for (const std::string h : {"1", "2", "3", "4"})
            add("ring/" + n + "/hop" + h, n, "ring-hop" + h);
    }
    for (const std::string &n : subset({"example", "sc", "gcc", "compress"})) {
        add("arb/" + n + "/scalar", n, "scalar-1w");
        for (const std::string e : {"4", "16", "64", "256"})
            for (const std::string policy : {"squash", "stall"})
                add("arb/" + n + "/" + policy + "_" + e, n,
                    "arb-" + policy + "-" + e);
    }
    if (!smoke) {
        // The paper's software techniques: assembler variants of
        // fixed workloads on the 8-unit machine.
        const std::vector<std::array<std::string, 4>> sw = {
            {"example", "consmask", "deadreg", "OPTMASK"},
            {"sc", "worklist", "grid", "SCGRID"},
            {"gcc", "squashing", "synchronized", "SYNC"},
            {"wc", "bottomtest", "earlyvalidate", "EARLYV"},
        };
        for (const auto &[n, base, variant, define] : sw) {
            add("sw/" + n + "/scalar", n, "scalar-1w");
            add("sw/" + n + "/" + base, n, "ms8-1w");
            add("sw/" + n + "/" + variant, n, "ms8-1w", {define});
        }
    }
    return g;
}

/** Mean |ln(measured / paper)| over the Table 3 1-way speedups. */
double
paperSpeedupErr(const msim::exp::SweepResult &r, bool smoke)
{
    double sum = 0.0;
    unsigned n = 0;
    for (const std::string &name : smoke ? kSmokePrograms : kPrograms) {
        const double scalar =
            double(r.result("table3/" + name + "/scalar_1way").cycles);
        const auto &[paper4, paper8] = kPaperTable3.at(name);
        for (const auto &[units, paper] :
             {std::pair<std::string, double>{"4", paper4}, {"8", paper8}}) {
            const double ms = double(
                r.result("table3/" + name + "/" + units + "unit_1way")
                    .cycles);
            sum += std::fabs(std::log(scalar / ms / paper));
            ++n;
        }
    }
    return sum / n;
}

/** What one set-up builds. */
struct PaperSetup
{
    std::unique_ptr<msim::exp::SweepScheduler> sched;
    std::unique_ptr<msim::exp::Experiment> experiment;
    std::map<std::string, std::string> expected; // cell -> golden
};

/**
 * Shapes -> experiment, and every program assembled into the
 * scheduler's fresh ProgramCache. No simulation runs here.
 */
PaperSetup
setUp(const std::vector<CellDecl> &grid, unsigned workers, Outcome &o,
      Tracer &tracer, int k)
{
    namespace exp = msim::exp;
    PaperSetup p;
    Tracer::Scope span(tracer, "setup", k);
    p.sched = std::make_unique<exp::SweepScheduler>(workers);
    p.experiment = std::make_unique<exp::Experiment>("perfbench-paper");
    {
        Tracer::Scope shapes(tracer, "setup.shapes", k);
        for (const CellDecl &c : grid) {
            RunSpec spec = msim::config::specForShape(c.shape);
            spec.defines = c.defines;
            p.experiment->add(c.name, c.workload, spec);
        }
    }
    std::map<std::string, std::string> golden; // compile key -> out
    for (const exp::Cell &c : p.experiment->cells()) {
        const std::string key = compileKey(c.workload, c.spec);
        if (golden.count(key) != 0)
            continue;
        const auto t0 = Clock::now();
        Tracer::Scope asmSpan(tracer, "asm.compile", k);
        golden[key] = p.sched->programCache()
                          .get(c.workload, c.spec.multiscalar,
                               c.spec.defines, c.scale)
                          ->workload.expected;
        o.layers.compileMs.push_back(secondsSince(t0) * 1e3);
    }
    for (const exp::Cell &c : p.experiment->cells())
        p.expected[c.name] = golden.at(compileKey(c.workload, c.spec));
    return p;
}

} // namespace

Outcome
runPaper(const Options &opt, Tracer &tracer, ExactLedger &ledger)
{
    namespace exp = msim::exp;
    Outcome o;
    o.workers = sweepWorkers();
    const std::vector<CellDecl> grid = paperGrid(opt.smoke);
    Rng rng(opt.seed);

    auto setUpOnce = [&](int k) {
        return setUp(grid, o.workers, o, tracer, k);
    };
    PaperSetup live = setupBatch(opt, o.setupSeconds, setUpOnce);
    exp::SweepScheduler &sched = *live.sched;
    const exp::Experiment &experiment = *live.experiment;
    std::map<std::string, std::string> &expected = live.expected;
    if (opt.corruptGolden)
        expected[grid.front().name] += "<corrupted>";

    const std::vector<exp::Cell> &cells = experiment.cells();
    msim::ProgramCache &cache = sched.programCache();
    const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();

    // Every round runs the grid in a fresh order drawn from the seed,
    // so a cell meets other co-running cells in each of its repeats
    // and its faster quarter is not tied to one pairing.
    auto roundOrder = [&] {
        std::vector<std::size_t> order(cells.size());
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);
        return order;
    };

    // One SweepScheduler sweep: a measured round of an untraced run,
    // and the source of the exp.* layer metrics in a traced one.
    auto sweepRound = [&] {
        exp::Experiment ordered("perfbench-paper");
        for (std::size_t i : roundOrder())
            ordered.add(cells[i].name, cells[i].workload, cells[i].spec,
                        cells[i].scale);
        std::uint64_t cycles = 0, instructions = 0;
        const exp::SweepResult sweep = sched.run(ordered);
        for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
            const exp::CellResult &c = sweep.cells[i];
            std::string error =
                c.ok ? verifyRun(c.result, expected.at(c.name),
                                 unitsOf(ordered.cells()[i].spec))
                     : c.error;
            if (error.empty() &&
                !ledger.check("rr/" + c.name, fingerprint(c.result)))
                error = "run counters differ from an earlier run";
            o.tally.op(c.name, c.wallSeconds, error, true);
            o.busySeconds += c.wallSeconds;
            cycles += c.result.cycles;
            instructions += c.result.instructions;
        }
        o.busyWall += sweep.wallSeconds;
        o.tally.endRound(sweep.wallSeconds, cycles, instructions);
        if (sweep.failures() == 0 && o.paperSpeedupErr < 0.0)
            o.paperSpeedupErr = paperSpeedupErr(sweep, opt.smoke);
    };

    // The same cells as directly driven sessions on threads of the
    // benchmark's own (traced runs only). Spans are on or off, so
    // trace.overhead_share compares one code path.
    Tracer quiet(false);
    auto sessionRound = [&](unsigned round, bool traced) {
        Tracer &tr = traced ? tracer : quiet;
        const std::vector<std::size_t> order = roundOrder();
        std::vector<Session> sessions(cells.size());
        const auto t0 = Clock::now();
        {
            Tracer::Scope span(tr, "round", round);
            runPool(cells.size(), o.workers, [&](std::size_t j) {
                const std::size_t i = order[j];
                const exp::Cell &c = cells[i];
                auto compiled = cache.get(c.workload, c.spec.multiscalar,
                                          c.spec.defines, c.scale);
                sessions[i] = runSession(*compiled, c.spec,
                                         expected.at(c.name), tr, i);
            });
        }
        const double wall = secondsSince(t0);
        std::uint64_t cycles = 0, instructions = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            record(o, ledger, cells[i].name, sessions[i], traced);
            cycles += sessions[i].result.cycles;
            instructions += sessions[i].result.instructions;
        }
        (traced ? o.tracedWall : o.untracedWall).push_back(wall);
        o.layers.rounds += traced ? 1 : 0;
        o.tally.endRound(wall, cycles, instructions);
    };

    if (opt.trace)
        sweepRound();
    const auto start = Clock::now();
    for (unsigned round = 0; anotherRound(opt, start, round, o.tally);
         ++round) {
        if (opt.trace)
            sessionRound(round, tracedRound(opt, round));
        else
            sweepRound();
        setupBatch(opt, o.setupSeconds, setUpOnce);
    }
    o.layers.cacheHits = cache.hits() - hits0;
    o.layers.cacheLookups =
        o.layers.cacheHits + (cache.misses() - misses0);
    return o;
}

} // namespace perfbench
