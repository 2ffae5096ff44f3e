/**
 * @file
 * The benchmark's named workloads. Each takes a batch of set-ups
 * (see setupBatch), then runs whole measured rounds, each followed
 * by another set-up batch, until Options::seconds is spent, and
 * checks every simulated result. In a traced run the measured rounds
 * alternate spans off and on (at least one of each) on one code
 * path, so trace.overhead_share compares like with like.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"

namespace perfbench {

/** The full bench_paper grid on four SweepScheduler workers. */
Outcome runPaper(const Options &opt, Tracer &tracer, ExactLedger &ledger);

/** Single-thread sessions in the slow-memory L2 regime. */
Outcome runMemstall(const Options &opt, Tracer &tracer,
                    ExactLedger &ledger);

/** Closed-loop clients against an in-process msim-server. */
Outcome runServe(const Options &opt, Tracer &tracer, ExactLedger &ledger);

/**
 * True while the measured loop should start another round: the
 * first two always run (each operation then has a repeat), later
 * ones while the last round's wall time still fits in
 * Options::seconds.
 */
inline bool
anotherRound(const Options &opt, Clock::time_point start,
             unsigned roundsDone, const Tally &tally)
{
    if (roundsDone < 2)
        return true;
    return secondsSince(start) + tally.roundWalls.back() <= opt.seconds;
}

/** Whether round @p round of a traced run records spans. */
inline bool
tracedRound(const Options &opt, unsigned round)
{
    return opt.trace && round % 2 == 1;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
