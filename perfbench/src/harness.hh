/**
 * @file
 * Shared machinery of the msim benchmark: options, the seeded
 * shuffle, host-time spans (Chrome trace-event output), one
 * directly-driven simulation session, the exactness ledger, and the
 * tallies the end-to-end and per-layer metrics are computed from.
 *
 * The benchmark drives msim only through its public surfaces:
 * compileWorkload / ProgramCache, config::specForShape, the processor
 * classes (construct, run, stats()), RunResult, exp::Experiment /
 * SweepScheduler and server::Server / Client. Counters come from the
 * processors' printed stats (StatRegistry::format), never from
 * component classes.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/run_result.hh"
#include "sim/runner.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Command line of the benchmark binary. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /**
     * Measured time: whole rounds run while the next is expected to
     * end within it, and at least two run.
     */
    double seconds = 20.0;
    /** Emit the per-layer metrics (traced run) instead of end-to-end. */
    bool trace = false;
    /** Shrink every workload to its smallest size (self-test). */
    bool smoke = false;
    /** Corrupt one golden output so its session must fail. */
    bool corruptGolden = false;
    /** Chrome trace-event file written by traced runs ("" = none). */
    std::string traceOut;
};

/**
 * Set-up is sampled in batches: one before the measured phase and
 * one after every round, so that setup_s, the median of every
 * set-up, samples the host across the whole run and not only the
 * second before it. A batch sets up at least kMinSetupBatch times
 * and until kSetupBatchSeconds have passed (smoke runs stop at the
 * minimum).
 */
inline constexpr int kMinSetupBatch = 3;
inline constexpr double kSetupBatchSeconds = 0.1;

/**
 * Run one batch of set-ups. @p setUp(k) sets up once, k counting
 * every set-up of the run, and returns what it built. The host time
 * of each call is appended to @p seconds; destroying what an earlier
 * call built is not timed. @return what the last call built.
 */
template <typename SetUp>
auto
setupBatch(const Options &opt, std::vector<double> &seconds, SetUp &&setUp)
{
    const auto start = Clock::now();
    decltype(setUp(0)) last{};
    for (int done = 0;
         done < kMinSetupBatch ||
         (!opt.smoke && secondsSince(start) < kSetupBatchSeconds);
         ++done) {
        const auto t0 = Clock::now();
        auto built = setUp(int(seconds.size()));
        seconds.push_back(secondsSince(t0));
        last = std::move(built);
    }
    return last;
}

/** splitmix64: the benchmark's only source of input randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Fisher-Yates with this generator (same seed, same order). */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    std::uint64_t state_;
};

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/**
 * Host-time spans of a traced run. A span has a name, start, end,
 * parent span and the session or request id it belongs to; spans
 * stay in memory and are written once, as Chrome trace-event JSON.
 * A disabled tracer records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** RAII span; closes when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::uint64_t ref);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_ = nullptr;
        std::size_t index_ = 0;
    };

    /** Self and total host time of every span name. */
    struct Time
    {
        double totalMs = 0.0;
        double selfMs = 0.0;
        std::uint64_t count = 0;
    };
    std::map<std::string, Time> times() const;

    /** Write every span as Chrome trace-event JSON. */
    void writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t ref;
        std::int64_t parent; //!< index of the parent span, -1 = root
        unsigned tid;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::size_t open(const char *name, std::uint64_t ref);
    void close(std::size_t index);

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    Clock::time_point epoch_ = Clock::now();
};

// ---------------------------------------------------------------------
// Sessions.
// ---------------------------------------------------------------------

/** Counters of StatRegistry::format(), "group.stat" -> value. */
using StatMap = std::map<std::string, std::uint64_t>;

/** One directly driven simulation session. */
struct Session
{
    /** Why the session failed ("" = verified). */
    std::string error;
    msim::RunResult result;
    /** Host time: construct + memory init + setInput, run, verify. */
    double constructS = 0.0;
    double runS = 0.0;
    double verifyS = 0.0;
    /** The processor's printed stats, parsed. */
    StatMap stats;
    /** The printed stats text (exactness fingerprint). */
    std::string statsText;

    double latencyS() const { return constructS + runS + verifyS; }
};

/**
 * Construct the spec's processor for @p compiled, initialize its
 * memory and input, run it, and verify the result against
 * @p expected. Never throws: failures land in Session::error.
 */
Session runSession(const msim::CompiledWorkload &compiled,
                   const msim::RunSpec &spec,
                   const std::string &expected, Tracer &tracer,
                   std::uint64_t ref);

/** "<workload>/<ms|sc>/<defines>": one compilation point. */
std::string compileKey(const std::string &workload,
                       const msim::RunSpec &spec);

/** Units of the machine a spec selects (1 for scalar). */
unsigned unitsOf(const msim::RunSpec &spec);

/**
 * Check a finished run: it exited within its budget, printed
 * @p expected, and its cycle accounting covers cycles x units
 * exactly. @return "" when correct, else the reason.
 */
std::string verifyRun(const msim::RunResult &r,
                      const std::string &expected, unsigned units);

/** Every exact counter of a RunResult, as one comparable string. */
std::string fingerprint(const msim::RunResult &r);

/**
 * Remembers the exact fingerprint of every key it is shown; a later
 * different fingerprint for the same key is a mismatch.
 */
class ExactLedger
{
  public:
    /** @return false when @p key was seen with another fingerprint. */
    bool check(const std::string &key, const std::string &fp);
    /** FNV-1a over the sorted entries whose key starts with @p prefix. */
    std::uint64_t digest(const std::string &prefix) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::string> seen_;
};

/** FNV-1a 64. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t h = 1469598103934665603ull);

// ---------------------------------------------------------------------
// Tallies and metrics.
// ---------------------------------------------------------------------

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** Linear-interpolated quantile of @p v (q in [0, 1]); 0 when empty. */
double quantile(std::vector<double> v, double q);
double median(const std::vector<double> &v);
/** Arithmetic mean of @p v; 0 when empty. */
double mean(const std::vector<double> &v);

/**
 * Host-time samples of one fixed operation: a cell, or one kind of
 * served request. Every round repeats the same operations, so the
 * samples of one operation are repeats of identical work.
 */
struct OpSamples
{
    /** Latency of every timed repeat, seconds. */
    std::vector<double> latencies;
    /** Whether it simulates (its time counts in sim_cycles_per_s). */
    bool simulates = false;
};

/** Operations, their host-time samples, and exact round totals. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Samples of every timed operation, by operation key. */
    std::map<std::string, OpSamples> ops;
    /** Wall time of every closed round. */
    std::vector<double> roundWalls;
    /** Exact totals of one round (every round must repeat them). */
    std::uint64_t roundCycles = 0;
    std::uint64_t roundInstructions = 0;
    bool roundTotalsSet = false;

    /**
     * Count one run of operation @p key; a non-empty @p error is a
     * failure. A negative @p latency counts it without timing it
     * (checks outside the measured phase).
     */
    void op(const std::string &key, double latency,
            const std::string &error, bool simulates);
    /** Close a round; its exact totals must match earlier rounds. */
    void endRound(double wall, std::uint64_t cycles,
                  std::uint64_t instructions);
};

/**
 * The faster quarter (at least one) of an operation's samples: its
 * quiet-host latencies. On a shared host the same work slows by up
 * to 2x in stretches of seconds; over a run every operation repeats
 * often enough that its faster quarter falls outside them.
 */
std::vector<double> fasterQuarter(std::vector<double> v);

/** Exact work counters and host times the per-layer metrics use. */
struct LayerTally
{
    std::vector<double> compileMs;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheLookups = 0;
    std::vector<double> constructMs;
    double runNs = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t unitCycles = 0;
    std::uint64_t ffCycles = 0;
    std::array<std::uint64_t, msim::kNumCycleCats> acct{};
    std::uint64_t instructions = 0;
    std::uint64_t squashedInstructions = 0;
    std::uint64_t predictions = 0;
    std::uint64_t predHits = 0;
    std::uint64_t arbLoads = 0;
    std::uint64_t arbStores = 0;
    std::uint64_t arbViolations = 0;
    std::uint64_t ringSends = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t mshrStallCycles = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t memTransfers = 0;
    /** Rounds folded in (absolute counts are reported per round). */
    unsigned rounds = 0;

    /** Fold in one successful session. */
    void add(const Session &s);
};

/** Host-side measurements of the server layer (serve workload). */
struct ServerLayer
{
    bool exercised = false;
    std::vector<double> pingMs;
    std::vector<double> runOverheadMs;
    std::vector<double> sweepOverheadMs;
    std::uint64_t errors = 0;
};

/** Everything a workload hands back to main(). */
struct Outcome
{
    Tally tally;
    LayerTally layers;
    ServerLayer server;
    std::vector<double> setupSeconds;
    /** Measured phase wall time of untraced / traced rounds. */
    std::vector<double> untracedWall;
    std::vector<double> tracedWall;
    /** exp.parallel_efficiency inputs: Σ session s, wall. */
    double busySeconds = 0.0;
    double busyWall = 0.0;
    /** Operations in flight at once: sweep workers or clients. */
    unsigned workers = 1;
    /** exp.paper_speedup_err (< 0 when the workload has no Table 3). */
    double paperSpeedupErr = -1.0;
};

/**
 * Check a finished session's counters against the ledger (keys
 * "rr/<cell>" and "st/<cell>") and count it as one operation;
 * @p traced sessions also feed the layers. Sessions outside the
 * measured rounds (@p measured false) add no latency or host time.
 */
void record(Outcome &o, ExactLedger &ledger, const std::string &cell,
            const Session &s, bool traced, bool measured = true);

/** The ten end-to-end metrics. */
std::vector<Metric> endToEndMetrics(const Outcome &o);
/** Every per-layer metric (-1 = layer not exercised). */
std::vector<Metric> layerMetrics(const Outcome &o);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/**
 * Run @p n jobs on @p workers threads (indices handed out in order);
 * with one worker the jobs run on the calling thread. The first
 * exception a job throws stops the pool and is rethrown after every
 * thread has joined.
 */
void runPool(std::size_t n, unsigned workers,
             const std::function<void(std::size_t)> &job);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
