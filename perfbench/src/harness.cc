#include "harness.hh"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "core/multiscalar_processor.hh"
#include "core/scalar_processor.hh"

namespace perfbench {

using msim::CycleCat;
using msim::RunResult;
using msim::RunSpec;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

namespace {

/** Per-thread stack of open span indices (parent links). */
thread_local std::vector<std::size_t> tlsOpen;

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned id = next++;
    return id;
}

} // namespace

Tracer::Scope::Scope(Tracer &tracer, const char *name, std::uint64_t ref)
{
    if (!tracer.enabled_)
        return;
    tracer_ = &tracer;
    index_ = tracer.open(name, ref);
}

Tracer::Scope::~Scope()
{
    if (tracer_ != nullptr)
        tracer_->close(index_);
}

std::size_t
Tracer::open(const char *name, std::uint64_t ref)
{
    const std::int64_t parent =
        tlsOpen.empty() ? -1 : std::int64_t(tlsOpen.back());
    const std::int64_t start =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, ref, parent, threadIndex(), start, start});
    tlsOpen.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::close(std::size_t index)
{
    const std::int64_t end =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    tlsOpen.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].endNs = end;
}

std::map<std::string, Tracer::Time>
Tracer::times() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> childMs(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childMs[std::size_t(s.parent)] += (s.endNs - s.startNs) / 1e6;
    std::map<std::string, Time> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double ms = (spans_[i].endNs - spans_[i].startNs) / 1e6;
        Time &t = out[spans_[i].name];
        t.totalMs += ms;
        t.selfMs += ms - childMs[i];
        ++t.count;
    }
    return out;
}

void
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"span\":%zu,\"parent\":%" PRId64
                      ",\"id\":%" PRIu64 "}}",
                      i == 0 ? "" : ",\n", s.name, s.tid,
                      s.startNs / 1e3, (s.endNs - s.startNs) / 1e3, i,
                      s.parent, s.ref);
        os << buf;
    }
    os << "\n]}\n";
}

// ---------------------------------------------------------------------
// Sessions.
// ---------------------------------------------------------------------

namespace {

StatMap
parseStats(const std::string &text)
{
    StatMap out;
    std::istringstream is(text);
    std::string key;
    std::uint64_t value = 0;
    while (is >> key >> value)
        out[key] += value;
    return out;
}

template <typename Proc, typename Config>
void
drive(Session &s, const msim::CompiledWorkload &compiled,
      const Config &cfg, const RunSpec &spec, Tracer &tracer,
      std::uint64_t ref)
{
    auto t0 = Clock::now();
    std::optional<Tracer::Scope> construct;
    construct.emplace(tracer, "core.construct", ref);
    Proc proc(compiled.program, cfg);
    if (compiled.workload.init)
        compiled.workload.init(proc.memory(), compiled.program);
    proc.setInput(compiled.workload.input);
    construct.reset();
    s.constructS = secondsSince(t0);
    t0 = Clock::now();
    {
        Tracer::Scope span(tracer, "core.run", ref);
        s.result = proc.run(spec.maxCycles);
    }
    s.runS = secondsSince(t0);
    Tracer::Scope span(tracer, "core.stats", ref);
    s.statsText = proc.stats().format();
    s.stats = parseStats(s.statsText);
}

} // namespace

std::string
compileKey(const std::string &workload, const RunSpec &spec)
{
    std::string key = workload + (spec.multiscalar ? "/ms/" : "/sc/");
    for (const std::string &d : spec.defines)
        key += d + ",";
    return key;
}

unsigned
unitsOf(const RunSpec &spec)
{
    return spec.multiscalar ? spec.ms.numUnits : 1;
}

std::string
verifyRun(const RunResult &r, const std::string &expected,
          unsigned units)
{
    if (r.hitMaxCycles)
        return "exhausted its cycle budget";
    if (!r.exited)
        return "stopped without exiting";
    if (r.output != expected)
        return "wrong output: got '" + r.output.substr(0, 60) + "'";
    if (r.accounting.numUnits != units ||
        r.accounting.sum() != std::uint64_t(r.cycles) * units)
        return "cycle accounting does not cover cycles x units";
    return "";
}

Session
runSession(const msim::CompiledWorkload &compiled, const RunSpec &spec,
           const std::string &expected, Tracer &tracer,
           std::uint64_t ref)
{
    Session s;
    Tracer::Scope span(tracer, "session", ref);
    try {
        if (spec.multiscalar)
            drive<msim::MultiscalarProcessor>(s, compiled, spec.ms, spec,
                                              tracer, ref);
        else
            drive<msim::ScalarProcessor>(s, compiled, spec.scalar, spec,
                                         tracer, ref);
        const auto t0 = Clock::now();
        Tracer::Scope verify(tracer, "sim.verify", ref);
        s.error = verifyRun(s.result, expected, unitsOf(spec));
        s.verifyS = secondsSince(t0);
    } catch (const std::exception &e) {
        s.error = e.what();
    }
    return s;
}

std::string
fingerprint(const RunResult &r)
{
    std::ostringstream os;
    os << r.cycles << ' ' << r.instructions << ' '
       << r.squashedInstructions << ' ' << r.exited << ' '
       << r.fastForwardedCycles << ' ' << r.tasksRetired << ' '
       << r.tasksSquashed << ' ' << r.taskPredictions << ' '
       << r.taskPredHits << ' ' << r.controlSquashes << ' '
       << r.memorySquashes << ' ' << r.arbFullSquashes << ' '
       << r.idleCycles << " acct";
    for (std::size_t i = 0; i < msim::kNumCycleCats; ++i)
        os << ' ' << r.accounting.total[i];
    for (const auto &unit : r.accounting.perUnit)
        for (std::uint64_t v : unit)
            os << ' ' << v;
    os << " out " << std::hex << fnv1a(r.output);
    return os.str();
}

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

bool
ExactLedger::check(const std::string &key, const std::string &fp)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, fresh] = seen_.emplace(key, fp);
    return fresh || it->second == fp;
}

std::uint64_t
ExactLedger::digest(const std::string &prefix) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t h = fnv1a("");
    for (const auto &[key, fp] : seen_)
        if (key.compare(0, prefix.size(), prefix) == 0)
            h = fnv1a(fp, fnv1a(key, h));
    return h;
}

// ---------------------------------------------------------------------
// Tallies.
// ---------------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

void
Tally::op(const std::string &key, double latency, const std::string &error,
          bool simulates)
{
    ++attempted;
    if (latency >= 0.0) {
        OpSamples &s = ops[key];
        s.latencies.push_back(latency);
        s.simulates = simulates;
    }
    if (!error.empty()) {
        ++failed;
        std::fprintf(stderr, "FAILED %s: %s\n", key.c_str(),
                     error.c_str());
    }
}

void
Tally::endRound(double wall, std::uint64_t cycles,
                std::uint64_t instructions)
{
    roundWalls.push_back(wall);
    if (!roundTotalsSet) {
        roundCycles = cycles;
        roundInstructions = instructions;
        roundTotalsSet = true;
    } else if (cycles != roundCycles ||
               instructions != roundInstructions) {
        // Per-operation exactness checks already count the sessions
        // that moved; this catches anything they could not see.
        ++attempted;
        ++failed;
        std::fprintf(stderr,
                     "FAILED round totals moved: %llu/%llu cycles, "
                     "%llu/%llu instructions\n",
                     (unsigned long long)cycles,
                     (unsigned long long)roundCycles,
                     (unsigned long long)instructions,
                     (unsigned long long)roundInstructions);
    }
}

std::vector<double>
fasterQuarter(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    v.resize((v.size() + 3) / 4);
    return v;
}

namespace {

/** Σ of every "<prefix><digits>.<stat>" counter (prefix alone too). */
std::uint64_t
sumStat(const StatMap &m, const std::string &prefix,
        const std::string &stat)
{
    std::uint64_t total = 0;
    for (auto it = m.lower_bound(prefix);
         it != m.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        const std::string &key = it->first;
        std::size_t i = prefix.size();
        while (i < key.size() && std::isdigit((unsigned char)key[i]))
            ++i;
        if (key.compare(i, std::string::npos, "." + stat) == 0)
            total += it->second;
    }
    return total;
}

} // namespace

void
LayerTally::add(const Session &s)
{
    const RunResult &r = s.result;
    constructMs.push_back(s.constructS * 1e3);
    runNs += s.runS * 1e9;
    cycles += r.cycles;
    unitCycles += std::uint64_t(r.cycles) * r.accounting.numUnits;
    ffCycles += r.fastForwardedCycles;
    for (std::size_t i = 0; i < msim::kNumCycleCats; ++i)
        acct[i] += r.accounting.total[i];
    instructions += r.instructions;
    squashedInstructions += r.squashedInstructions;
    predictions += r.taskPredictions;
    predHits += r.taskPredHits;

    const StatMap &m = s.stats;
    auto get = [&](const std::string &k) {
        auto it = m.find(k);
        return it == m.end() ? std::uint64_t(0) : it->second;
    };
    arbLoads += get("arb.loads");
    arbStores += get("arb.stores");
    arbViolations += get("arb.violations");
    ringSends += get("ring.sends");

    const std::uint64_t l1Misses = sumStat(m, "dcache", "readMisses") +
                                   sumStat(m, "dcache", "writeMisses");
    const std::uint64_t l1Wb = sumStat(m, "dcache", "writebacks");
    l1dAccesses += l1Misses + sumStat(m, "dcache", "readHits") +
                   sumStat(m, "dcache", "writeHits");
    l1dMisses += l1Misses;

    const std::uint64_t l2Miss =
        get("l2.readMisses") + get("l2.writeMisses");
    l2Accesses += l2Miss + get("l2.readHits") + get("l2.writeHits");
    l2Misses += l2Miss;
    mshrStallCycles += get("l2.mshrStallCycles");
    writebacks += l1Wb + get("l2.writebacks");
    memTransfers += l1Misses + l1Wb + l2Miss + get("l2.writebacks");
}

void
record(Outcome &o, ExactLedger &ledger, const std::string &cell,
       const Session &s, bool traced, bool measured)
{
    std::string error = s.error;
    if (error.empty() &&
        !ledger.check("rr/" + cell, fingerprint(s.result)))
        error = "run counters differ from an earlier run of this cell";
    if (error.empty() && !ledger.check("st/" + cell, s.statsText))
        error = "component counters differ from an earlier run of "
                "this cell";
    o.tally.op(cell, measured ? s.latencyS() : -1.0, error, true);
    if (traced && error.empty())
        o.layers.add(s);
}

namespace {

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Highest quantile with at least ten samples beyond it (<= p95). */
double
tailQuantile(std::size_t n)
{
    if (n == 0)
        return 0.5;
    return std::clamp(1.0 - 10.0 / double(n), 0.5, 0.95);
}

} // namespace

std::vector<Metric>
endToEndMetrics(const Outcome &o)
{
    // Every host-time metric except setup_s comes from the operations'
    // quiet-host latencies: one round is Σ over its operations of
    // their faster-quarter mean, with o.workers of them in flight.
    const Tally &t = o.tally;
    const double rounds =
        double(std::max<std::size_t>(1, t.roundWalls.size()));
    double roundS = 0.0, simS = 0.0, opsPerRound = 0.0;
    std::vector<double> latencies;
    for (const auto &[key, s] : t.ops) {
        const std::vector<double> quiet = fasterQuarter(s.latencies);
        const double perRound = double(s.latencies.size()) / rounds;
        const double quietS = perRound * mean(quiet);
        roundS += quietS;
        if (s.simulates)
            simS += quietS;
        opsPerRound += perRound;
        latencies.insert(latencies.end(), quiet.begin(), quiet.end());
    }
    const double wall = roundS / double(o.workers);
    const double tail = tailQuantile(latencies.size());
    std::printf("host-time metrics from the faster quarter of each of %zu "
                "operations' repeats over %zu rounds; latency samples: "
                "%zu (run_p95_ms reports p%.1f)\n",
                t.ops.size(), t.roundWalls.size(), latencies.size(),
                tail * 100.0);
    return {
        {"wall_s", "s", wall},
        {"setup_s", "s", median(o.setupSeconds)},
        {"sim_cycles_per_s", "1/s", ratio(double(t.roundCycles), simS)},
        {"req_per_s", "1/s", ratio(opsPerRound, wall)},
        {"run_p50_ms", "ms", quantile(latencies, 0.5) * 1e3},
        {"run_p95_ms", "ms", quantile(latencies, tail) * 1e3},
        {"success_rate", "ratio",
         ratio(double(t.attempted - t.failed), double(t.attempted))},
        {"peak_rss_mb", "MiB", peakRssMb()},
        {"sim_cycles", "count", double(t.roundCycles)},
        {"sim_instructions", "count", double(t.roundInstructions)},
    };
}

std::vector<Metric>
layerMetrics(const Outcome &o)
{
    const LayerTally &l = o.layers;
    const ServerLayer &srv = o.server;
    auto acctShare = [&](CycleCat c) {
        return ratio(double(l.acct[std::size_t(c)]), double(l.unitCycles));
    };
    auto serverOr = [&](double v) { return srv.exercised ? v : -1.0; };
    const double ticked = double(l.cycles - l.ffCycles);
    const double untraced = median(o.untracedWall);
    std::vector<Metric> m = {
        {"asm.compile_ms", "ms", median(l.compileMs)},
        {"sim.cache_hit_rate", "ratio",
         ratio(double(l.cacheHits), double(l.cacheLookups))},
        {"core.construct_ms", "ms", median(l.constructMs)},
        {"core.run_ns_per_unit_cycle", "ns",
         ratio(l.runNs, double(l.unitCycles))},
        {"core.run_ns_per_ticked_cycle", "ns", ratio(l.runNs, ticked)},
        {"core.ff_share", "ratio",
         ratio(double(l.ffCycles), double(l.cycles))},
    };
    for (std::size_t i = 0; i < msim::kNumCycleCats; ++i)
        m.push_back({std::string("core.acct.") +
                         msim::cycleCatName(CycleCat(i)) + "_share",
                     "ratio", acctShare(CycleCat(i))});
    const std::vector<Metric> rest = {
        {"pu.squashed_instr_share", "ratio",
         ratio(double(l.squashedInstructions),
               double(l.instructions + l.squashedInstructions))},
        {"arb.accesses_per_kcycle", "1/kcycle",
         ratio(1e3 * double(l.arbLoads + l.arbStores), double(l.cycles))},
        {"arb.violations_per_kload", "1/kload",
         ratio(1e3 * double(l.arbViolations), double(l.arbLoads))},
        {"ring.forwards_per_kcycle", "1/kcycle",
         ratio(1e3 * double(l.ringSends), double(l.cycles))},
        {"predict.accuracy", "ratio",
         l.predictions == 0 ? 1.0
                            : ratio(double(l.predHits),
                                    double(l.predictions))},
        {"mem.l1d_miss_rate", "ratio",
         ratio(double(l.l1dMisses), double(l.l1dAccesses))},
        {"mem.l2_miss_rate", "ratio",
         ratio(double(l.l2Misses), double(l.l2Accesses))},
        {"mem.mshr_stall_cycles", "count",
         ratio(double(l.mshrStallCycles), double(l.rounds))},
        {"mem.writeback_share", "ratio",
         ratio(double(l.writebacks), double(l.memTransfers))},
        {"exp.parallel_efficiency", "ratio",
         ratio(o.busySeconds, o.busyWall * o.workers)},
        {"exp.paper_speedup_err", "ln", o.paperSpeedupErr},
        {"server.ping_p50_ms", "ms", serverOr(median(srv.pingMs))},
        {"server.run_overhead_ms", "ms",
         serverOr(median(srv.runOverheadMs))},
        {"server.sweep_overhead_ms", "ms",
         serverOr(median(srv.sweepOverheadMs))},
        {"server.errors", "count", serverOr(double(srv.errors))},
        {"trace.overhead_share", "ratio",
         ratio(median(o.tracedWall), untraced) - 1.0},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

double
peakRssMb()
{
    // VmHWM, not getrusage: ru_maxrss survives execve and would
    // report the launcher's footprint when it is the larger.
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

void
runPool(std::size_t n, unsigned workers,
        const std::function<void(std::size_t)> &job)
{
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            job(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::exception_ptr failure;
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back([&] {
            try {
                for (std::size_t i = next++; i < n; i = next++)
                    job(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!failure)
                    failure = std::current_exception();
                next = n;
            }
        });
    for (std::thread &t : pool)
        t.join();
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace perfbench
