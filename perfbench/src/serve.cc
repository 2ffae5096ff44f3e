/**
 * @file
 * Workload "serve": an in-process msim-server on loopback with two
 * workers, and two closed-loop clients that each keep one request in
 * flight. Every round, each client sends the same fixed multiset of
 * requests (ping, stats, assemble, run, 3-cell streamed sweep) in an
 * order drawn from the seed, so the simulated work per round is
 * exact while the interleaving varies.
 *
 * Every served run and sweep result must be bit-identical to
 * runCompiled on the same cell in-process; those reference results
 * are computed after set-up and outside the measured rounds.
 */

#include <algorithm>
#include <memory>

#include "config/machine_shape.hh"
#include "exp/scheduler.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using msim::RunSpec;
using msim::json::Value;
namespace server = msim::server;

const std::vector<std::string> kPrograms = {"example", "wc", "cmp"};
const std::vector<std::string> kRunShapes = {"scalar-1w", "ms4-1w"};
const std::string kSweepShape = "ms8-1w";

/** Server workers and client connections. */
constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;

struct ServeCell
{
    std::string name;
    std::string workload;
    RunSpec spec;
};

enum class Kind { Ping, Stats, Assemble, Run, Sweep };

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Ping: return "rpc.ping";
      case Kind::Stats: return "rpc.stats";
      case Kind::Assemble: return "rpc.assemble";
      case Kind::Run: return "rpc.run";
      case Kind::Sweep: return "rpc.sweep";
    }
    return "rpc";
}

struct Request
{
    Kind kind;
    /** Run cell / assembled program index (unused otherwise). */
    std::size_t index = 0;
};

struct Reply
{
    Request request;
    double latency = 0.0;
    Value response;
    server::Client::SweepOutcome sweep;
    std::string error;
};

/**
 * Runs of each cell per client and round. Sorted by latency, one
 * client's 36 replies fall into groups: pings, stats and assembles
 * (under 1 ms; 0-33%), cmp scalar (~30 ms; 33-39%), cmp 4-unit and
 * wc scalar (~35-50 ms; 39-72%), wc 4-unit and example scalar
 * (70-120 ms; 72-83%), example 4-unit (~230 ms; 83-97%) and the
 * sweep (~290 ms; 97-100%). So run_p50_ms lands inside the cmp 4-unit
 * group and run_p95_ms inside example 4-unit, away from the gaps
 * between groups. One sweep per client keeps both server workers
 * mostly free: a sweep holds both, and runs queued behind it made
 * run_p50_ms bimodal when the mix had five.
 */
unsigned
runsOf(const std::string &cell)
{
    if (cell == "cmp/ms4-1w")
        return 10;
    return cell == "example/ms4-1w" ? 5 : 2;
}

/** One client's requests per round (smoke: one of each, 2 pings). */
std::vector<Request>
requestMix(bool smoke, const std::vector<ServeCell> &runCells,
           std::size_t programs)
{
    std::vector<Request> mix;
    auto add = [&](Kind kind, unsigned n, std::size_t index = 0) {
        mix.insert(mix.end(), n, Request{kind, index});
    };
    add(Kind::Ping, smoke ? 2 : 4);
    add(Kind::Stats, smoke ? 1 : 2);
    for (std::size_t p = 0; p < programs; ++p)
        add(Kind::Assemble, 1, p);
    for (std::size_t c = 0; c < runCells.size(); ++c)
        add(Kind::Run, smoke ? 1 : runsOf(runCells[c].name), c);
    add(Kind::Sweep, 1);
    return mix;
}

/** Exact fields a served run or sweep cell must share with runCompiled. */
const std::vector<std::string> kExactFields = {
    "cycles",           "instructions",     "squashed_instructions",
    "tasks_retired",    "tasks_squashed",   "task_predictions",
    "task_pred_hits",   "control_squashes", "memory_squashes",
    "arb_full_squashes", "accounting",
};

/** "" when @p served matches @p reference on every exact field. */
std::string
compareServed(const Value &served, const Value &reference,
              const std::string &expectedOutput, unsigned units)
{
    if (reference.isNull())
        return "no in-process reference result for this cell";
    for (const std::string &f : kExactFields) {
        const Value *a = served.find(f);
        if (a == nullptr || a->dump() != reference.find(f)->dump())
            return "field '" + f + "' differs from runCompiled";
    }
    std::uint64_t acct = 0;
    for (const auto &[cat, v] : served.find("accounting")->entries())
        acct += std::uint64_t(v.asInt());
    if (acct != std::uint64_t(served.find("cycles")->asInt()) * units)
        return "cycle accounting does not cover cycles x units";
    for (const std::string f : {"exited", "fast_forwarded_cycles"}) {
        const Value *a = served.find(f);
        if (a != nullptr && a->dump() != reference.find(f)->dump())
            return "field '" + f + "' differs from runCompiled";
    }
    if (const Value *out = served.find("output"))
        if (out->asString() != expectedOutput)
            return "wrong output: got '" + out->asString().substr(0, 60) +
                   "'";
    return "";
}

std::string
responseType(const Value &v)
{
    const Value *t = v.find("type");
    return t != nullptr && t->isString() ? t->asString() : "";
}

/** The live server and its connected clients. */
struct Deployment
{
    std::unique_ptr<server::Server> srv;
    std::vector<server::Client> clients;

    void
    stop()
    {
        for (server::Client &c : clients)
            c.close();
        clients.clear();
        if (srv)
            srv->shutdown();
        srv.reset();
    }
};

/** What the workload serves, and the in-process answers it expects. */
struct Catalog
{
    std::vector<ServeCell> runCells;
    std::vector<ServeCell> sweepCells;
    std::vector<msim::exp::Cell> sweepRequest;
    /** Assembled programs: (workload, multiscalar). */
    std::vector<std::pair<std::string, bool>> programs;
    /** Golden output per compile key. */
    std::map<std::string, std::string> expected;
    /** runCompiled result (resultToJson) and host seconds per cell. */
    std::map<std::string, Value> reference;
    std::map<std::string, double> inProcessS;
    /** In-process 2-worker sweep time of the sweep cells. */
    double sweepInProcessS = 0.0;

    const std::string &
    golden(const ServeCell &c) const
    {
        return expected.at(compileKey(c.workload, c.spec));
    }
};

/** Send one request and wait for its complete reply. */
void
send(server::Client &client, const Catalog &cat, std::int64_t id,
     Reply &rep)
{
    switch (rep.request.kind) {
      case Kind::Ping:
      case Kind::Stats: {
        Value v = Value::object();
        v.set("type", Value(rep.request.kind == Kind::Ping ? "ping"
                                                           : "stats"));
        v.set("id", Value(id));
        rep.response = client.call(v);
        break;
      }
      case Kind::Assemble: {
        server::AssembleRequest a;
        a.workload = cat.programs[rep.request.index].first;
        a.multiscalar = cat.programs[rep.request.index].second;
        rep.response = client.call(server::makeAssembleRequest(a, id));
        break;
      }
      case Kind::Run: {
        const ServeCell &c = cat.runCells[rep.request.index];
        rep.response =
            client.call(server::makeRunRequest(c.workload, c.spec, 1, id));
        break;
      }
      case Kind::Sweep:
        rep.sweep = client.sweep(
            server::makeSweepRequest(cat.sweepRequest, id));
        rep.response = rep.sweep.done;
        break;
    }
}

/** Simulated work a round's replies carried. */
struct RoundWork
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    void
    add(const Value &result)
    {
        cycles += std::uint64_t(result.find("cycles")->asInt());
        instructions += std::uint64_t(result.find("instructions")->asInt());
    }
};

/**
 * Check one reply against what the catalog expects; "" when correct.
 * Records the server-layer measurements the reply provides.
 */
std::string
checkReply(const Reply &rep, const Catalog &cat, RoundWork &work,
           ServerLayer &layer)
{
    if (!rep.error.empty() || server::isErrorFrame(rep.response)) {
        ++layer.errors;
        return rep.error.empty() ? "error frame: " + rep.response.dump()
                                 : rep.error;
    }
    const std::string type = responseType(rep.response);
    auto reference = [&](const ServeCell &c) {
        auto it = cat.reference.find(c.name);
        return it == cat.reference.end() ? Value() : it->second;
    };
    switch (rep.request.kind) {
      case Kind::Ping:
        layer.pingMs.push_back(rep.latency * 1e3);
        return type == "pong" ? "" : "unexpected reply " + type;
      case Kind::Stats:
        return type == "stats" ? "" : "unexpected reply " + type;
      case Kind::Assemble: {
        const Value *cached = rep.response.find("cached");
        return type == "assemble_result" && cached != nullptr &&
                       cached->isBool() && cached->asBool()
                   ? ""
                   : "assemble missed the warm program cache";
      }
      case Kind::Run: {
        const ServeCell &c = cat.runCells[rep.request.index];
        layer.runOverheadMs.push_back(
            (rep.latency - cat.inProcessS.at(c.name)) * 1e3);
        const Value *res = rep.response.find("result");
        if (type != "run_result" || res == nullptr)
            return "unexpected reply " + type;
        const std::string error =
            compareServed(*res, reference(c), cat.golden(c), unitsOf(c.spec));
        if (error.empty())
            work.add(*res);
        return error;
      }
      case Kind::Sweep: {
        layer.sweepOverheadMs.push_back(
            (rep.latency - cat.sweepInProcessS) * 1e3);
        const Value *failed = rep.response.find("cells_failed");
        if (type != "sweep_done" || failed == nullptr ||
            failed->asInt() != 0 ||
            rep.sweep.cells.size() != cat.sweepCells.size())
            return "sweep incomplete: " + rep.response.dump();
        for (std::size_t i = 0; i < rep.sweep.cells.size(); ++i) {
            const ServeCell &c = cat.sweepCells[i];
            const Value &cell = rep.sweep.cells[i].cell;
            const std::string error = compareServed(
                cell, reference(c), cat.golden(c), unitsOf(c.spec));
            if (!error.empty())
                return c.name + ": " + error;
            work.add(cell);
        }
        return "";
      }
    }
    return "unknown request kind";
}

/** Label of a request in failure messages and the latency table. */
std::string
labelOf(const Request &r, const Catalog &cat)
{
    std::string label = kindName(r.kind);
    if (r.kind == Kind::Run)
        label += " " + cat.runCells[r.index].name;
    return label;
}

/** What one set-up builds. */
struct ServeSetup
{
    Catalog cat;
    std::unique_ptr<msim::ProgramCache> cache;
    Deployment dep;
};

/**
 * Set-up, timed as setup_s: shapes, every program into a fresh
 * ProgramCache, server start, server cache warm-up by assemble, and
 * client connects. Runs no simulation.
 */
ServeSetup
setUp(Outcome &o, Tracer &tracer, int k)
{
    ServeSetup s;
    Catalog &cat = s.cat;
    Tracer::Scope setupSpan(tracer, "setup", k);
    {
        Tracer::Scope shapes(tracer, "setup.shapes", k);
        for (const std::string &shape : kRunShapes)
            for (const std::string &p : kPrograms)
                cat.runCells.push_back(
                    {p + "/" + shape, p, msim::config::specForShape(shape)});
        for (const std::string &p : kPrograms)
            cat.sweepCells.push_back(
                {p + "/" + kSweepShape, p,
                 msim::config::specForShape(kSweepShape)});
    }
    s.cache = std::make_unique<msim::ProgramCache>();
    std::set<std::string> compiled;
    for (const auto *set : {&cat.runCells, &cat.sweepCells}) {
        for (const ServeCell &c : *set) {
            const std::string key = compileKey(c.workload, c.spec);
            if (!compiled.insert(key).second)
                continue;
            cat.programs.emplace_back(c.workload, c.spec.multiscalar);
            const auto t0 = Clock::now();
            Tracer::Scope span(tracer, "asm.compile", k);
            cat.expected[key] = s.cache->get(c.workload, c.spec.multiscalar)
                                    ->workload.expected;
            o.layers.compileMs.push_back(secondsSince(t0) * 1e3);
        }
    }
    Deployment &dep = s.dep;
    {
        Tracer::Scope span(tracer, "setup.server_start", k);
        server::ServerConfig cfg;
        cfg.service.jobs = kWorkers;
        dep.srv = std::make_unique<server::Server>(cfg);
        dep.srv->start();
    }
    dep.clients.resize(kClients);
    for (server::Client &c : dep.clients)
        c.connect("127.0.0.1", dep.srv->port());
    Tracer::Scope span(tracer, "setup.warmup", k);
    for (const auto &[name, ms] : cat.programs) {
        server::AssembleRequest a;
        a.workload = name;
        a.multiscalar = ms;
        const Value r = dep.clients[0].call(server::makeAssembleRequest(a));
        if (responseType(r) != "assemble_result")
            throw std::runtime_error("warm-up assemble of " + name +
                                     " failed: " + r.dump());
    }
    return s;
}

/**
 * In-process answers, outside the measured rounds: runCompiled on
 * every served cell (and, traced, a directly driven session for the
 * layer counters), and the sweep cells on a 2-worker SweepScheduler.
 * The in-process times are the fastest of kReferenceRepeats runs, so
 * a cold first run does not inflate them.
 */
void
computeReferences(Catalog &cat, msim::ProgramCache &cache, Outcome &o,
                  const Options &opt, Tracer &tracer, ExactLedger &ledger)
{
    constexpr int kReferenceRepeats = 3;
    std::vector<ServeCell> all = cat.runCells;
    all.insert(all.end(), cat.sweepCells.begin(), cat.sweepCells.end());
    for (int rep = 0; rep < kReferenceRepeats; ++rep) {
        for (std::size_t i = 0; i < all.size(); ++i) {
            const ServeCell &c = all[i];
            auto compiled = cache.get(c.workload, c.spec.multiscalar);
            std::string error;
            const auto t0 = Clock::now();
            try {
                const msim::RunResult r =
                    msim::runCompiled(*compiled, c.spec);
                const double s = secondsSince(t0);
                auto [it, fresh] = cat.inProcessS.emplace(c.name, s);
                it->second = std::min(it->second, s);
                error = verifyRun(r, cat.golden(c), unitsOf(c.spec));
                if (error.empty() &&
                    !ledger.check("rr/" + c.name, fingerprint(r)))
                    error = "run counters differ from an earlier run";
                cat.reference[c.name] = server::resultToJson(r);
            } catch (const std::exception &e) {
                cat.inProcessS.emplace(c.name, secondsSince(t0));
                error = e.what();
            }
            o.tally.op("reference " + c.name, -1.0, error, true);
            if (opt.trace && rep == 0 && error.empty()) {
                const Session s =
                    runSession(*compiled, c.spec, cat.golden(c), tracer, i);
                record(o, ledger, c.name, s, true, false);
            }
        }
    }
    o.layers.rounds = opt.trace ? 1 : 0;

    msim::exp::Experiment e("perfbench-serve-sweep");
    msim::exp::SweepScheduler sched(kWorkers);
    for (const ServeCell &c : cat.sweepCells) {
        e.add(c.name, c.workload, c.spec);
        sched.programCache().get(c.workload, c.spec.multiscalar);
        cat.sweepRequest.push_back({c.name, c.workload, 1, c.spec});
    }
    for (int rep = 0; rep < kReferenceRepeats; ++rep) {
        const msim::exp::SweepResult r = sched.run(e);
        cat.sweepInProcessS = rep == 0 ? r.wallSeconds
                                       : std::min(cat.sweepInProcessS,
                                                  r.wallSeconds);
        for (const msim::exp::CellResult &c : r.cells) {
            std::string error = c.ok ? "" : c.error;
            if (error.empty() &&
                !ledger.check("rr/" + c.name, fingerprint(c.result)))
                error = "sweep counters differ from runCompiled";
            o.tally.op("reference sweep " + c.name, -1.0, error, true);
        }
    }
}

/** The server's program-cache (hits, misses), via a stats request. */
std::pair<std::uint64_t, std::uint64_t>
cacheCounters(server::Client &client)
{
    Value req = Value::object();
    req.set("type", Value("stats"));
    const Value r = client.call(req);
    const Value *pc = r.find("stats")->find("program_cache");
    return {std::uint64_t(pc->find("hits")->asInt()),
            std::uint64_t(pc->find("misses")->asInt())};
}

} // namespace

Outcome
runServe(const Options &opt, Tracer &tracer, ExactLedger &ledger)
{
    Outcome o;
    o.workers = kClients;
    o.server.exercised = true;

    // Each set-up starts a deployment of its own; the last one of the
    // first batch serves the measured rounds, and the later batches'
    // deployments stop when the batch returns.
    auto setUpOnce = [&](int k) { return setUp(o, tracer, k); };
    ServeSetup live = setupBatch(opt, o.setupSeconds, setUpOnce);
    Catalog &cat = live.cat;
    Deployment &dep = live.dep;
    if (opt.corruptGolden)
        cat.expected[compileKey(cat.runCells.front().workload,
                                cat.runCells.front().spec)] += "<corrupted>";
    computeReferences(cat, *live.cache, o, opt, tracer, ledger);
    const auto [hits0, misses0] = cacheCounters(dep.clients[0]);

    const std::vector<Request> mix =
        requestMix(opt.smoke, cat.runCells, cat.programs.size());
    Rng rng(opt.seed);
    Tracer quiet(false);
    std::int64_t nextId = 1;
    const auto start = Clock::now();
    for (unsigned round = 0; anotherRound(opt, start, round, o.tally);
         ++round) {
        const bool traced = tracedRound(opt, round);
        Tracer &tr = traced ? tracer : quiet;
        std::vector<std::vector<Request>> plans(kClients, mix);
        for (auto &plan : plans)
            rng.shuffle(plan);
        std::vector<std::vector<Reply>> replies(kClients);
        const std::int64_t idBase = nextId;
        nextId += std::int64_t(kClients * mix.size());

        const auto t0 = Clock::now();
        {
            Tracer::Scope span(tr, "round", round);
            runPool(kClients, kClients, [&](std::size_t ci) {
                for (std::size_t i = 0; i < plans[ci].size(); ++i) {
                    Reply rep;
                    rep.request = plans[ci][i];
                    const std::int64_t id =
                        idBase + std::int64_t(ci * mix.size() + i);
                    Tracer::Scope rs(tr, kindName(rep.request.kind),
                                     std::uint64_t(id));
                    const auto t1 = Clock::now();
                    try {
                        send(dep.clients[ci], cat, id, rep);
                    } catch (const std::exception &e) {
                        rep.error = e.what();
                    }
                    rep.latency = secondsSince(t1);
                    replies[ci].push_back(std::move(rep));
                }
            });
        }
        const double wall = secondsSince(t0);

        RoundWork work;
        for (const auto &list : replies) {
            for (const Reply &rep : list) {
                const bool simulates = rep.request.kind == Kind::Run ||
                                       rep.request.kind == Kind::Sweep;
                o.tally.op(labelOf(rep.request, cat), rep.latency,
                           checkReply(rep, cat, work, o.server), simulates);
                if (simulates)
                    o.busySeconds += rep.latency;
            }
        }
        o.busyWall += wall;
        (traced ? o.tracedWall : o.untracedWall).push_back(wall);
        o.tally.endRound(wall, work.cycles, work.instructions);
        setupBatch(opt, o.setupSeconds, setUpOnce);
    }

    const auto [hits1, misses1] = cacheCounters(dep.clients[0]);
    o.layers.cacheHits = hits1 - hits0;
    o.layers.cacheLookups = o.layers.cacheHits + (misses1 - misses0);
    dep.stop();
    return o;
}

} // namespace perfbench
