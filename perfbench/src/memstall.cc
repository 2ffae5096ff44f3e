/**
 * @file
 * Workload "memstall": single-thread sessions in the slow-memory
 * regime of bench_ablation_l2 (bus first-beat latency 100). The five
 * cache-stress workloads plus cmp, compress and tomcatv run on the
 * L2-less 4-unit machine and on four 256 KB L2 variants (NINE,
 * inclusive, exclusive, one MSHR). About half the simulated cycles
 * are fast-forwarded, so host time goes to the quiescence skip and
 * the memory hierarchy rather than to the processing units. Each
 * round runs every cell once (the ~50 ms cells twice; see repeatsOf),
 * in an order drawn from the seed.
 */

#include <memory>
#include <numeric>

#include "config/machine_shape.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using msim::RunSpec;

const std::vector<std::string> kPrograms = {
    "pointer_chase", "stream_triad", "gups", "stencil", "thrash",
    "cmp",           "compress",     "tomcatv",
};
const std::vector<std::string> kShapes = {
    "ms4-1w", "l2-256k", "l2-256k-inclusive", "l2-256k-exclusive",
    "l2-256k-mshr1",
};
const std::vector<std::string> kSmokePrograms = {"pointer_chase",
                                                 "stream_triad"};
const std::vector<std::string> kSmokeShapes = {"ms4-1w", "l2-256k-mshr1"};

/**
 * Sessions per round of each program's cells. Sorted by latency the
 * cells fall into groups: thrash (~15 ms), pointer_chase, gups and
 * stencil (~30 ms), cmp and stream_triad (~50 ms), tomcatv (~65 ms)
 * and compress (~95 ms). Running the ~50 ms group twice puts
 * run_p50_ms in its middle and run_p95_ms inside compress, away from
 * the gaps between groups, so neither jumps when the groups' relative
 * speed shifts.
 */
unsigned
repeatsOf(const std::string &program)
{
    return program == "cmp" || program == "stream_triad" ? 2 : 1;
}

/** Bus first-beat latency of the slow-memory regime, cycles. */
constexpr unsigned kSlowFirstBeat = 100;

struct MemCell
{
    std::string name;
    std::string workload;
    RunSpec spec;
};

/** What one set-up builds. */
struct MemSetup
{
    std::unique_ptr<msim::ProgramCache> cache;
    std::vector<MemCell> cells;
    std::map<std::string, std::string> expected; // workload -> golden
};

/** Shapes -> cells, and every program into a fresh ProgramCache. */
MemSetup
setUp(const std::vector<std::string> &programs,
      const std::vector<std::string> &shapes, Outcome &o, Tracer &tracer,
      int k)
{
    MemSetup m;
    Tracer::Scope span(tracer, "setup", k);
    m.cache = std::make_unique<msim::ProgramCache>();
    {
        Tracer::Scope shapeSpan(tracer, "setup.shapes", k);
        for (const std::string &shape : shapes) {
            RunSpec spec = msim::config::specForShape(shape);
            spec.ms.bus.firstBeatLatency = kSlowFirstBeat;
            for (const std::string &p : programs)
                for (unsigned r = 0; r < repeatsOf(p); ++r)
                    m.cells.push_back({p + "/slowmem/" + shape, p, spec});
        }
    }
    for (const std::string &p : programs) {
        const auto t0 = Clock::now();
        Tracer::Scope asmSpan(tracer, "asm.compile", k);
        m.expected[p] = m.cache->get(p, true)->workload.expected;
        o.layers.compileMs.push_back(secondsSince(t0) * 1e3);
    }
    return m;
}

} // namespace

Outcome
runMemstall(const Options &opt, Tracer &tracer, ExactLedger &ledger)
{
    Outcome o;
    o.workers = 1;
    const auto &programs = opt.smoke ? kSmokePrograms : kPrograms;
    const auto &shapes = opt.smoke ? kSmokeShapes : kShapes;

    auto setUpOnce = [&](int k) {
        return setUp(programs, shapes, o, tracer, k);
    };
    MemSetup live = setupBatch(opt, o.setupSeconds, setUpOnce);
    msim::ProgramCache &cache = *live.cache;
    const std::vector<MemCell> &cells = live.cells;
    if (opt.corruptGolden)
        live.expected[programs.front()] += "<corrupted>";

    const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
    Rng rng(opt.seed);
    Tracer quiet(false);
    const auto start = Clock::now();
    for (unsigned round = 0; anotherRound(opt, start, round, o.tally);
         ++round) {
        const bool traced = tracedRound(opt, round);
        Tracer &tr = traced ? tracer : quiet;
        std::vector<std::size_t> order(cells.size());
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);

        std::uint64_t cycles = 0, instructions = 0;
        const auto t0 = Clock::now();
        {
            Tracer::Scope span(tr, "round", round);
            for (std::size_t i : order) {
                const MemCell &c = cells[i];
                auto compiled = cache.get(c.workload, c.spec.multiscalar);
                const Session s = runSession(
                    *compiled, c.spec, live.expected.at(c.workload), tr,
                    round * cells.size() + i);
                record(o, ledger, c.name, s, traced);
                o.busySeconds += s.latencyS();
                cycles += s.result.cycles;
                instructions += s.result.instructions;
            }
        }
        const double wall = secondsSince(t0);
        o.busyWall += wall;
        (traced ? o.tracedWall : o.untracedWall).push_back(wall);
        o.layers.rounds += traced ? 1 : 0;
        o.tally.endRound(wall, cycles, instructions);
        setupBatch(opt, o.setupSeconds, setUpOnce);
    }
    o.layers.cacheHits = cache.hits() - hits0;
    o.layers.cacheLookups =
        o.layers.cacheHits + (cache.misses() - misses0);
    return o;
}

} // namespace perfbench
