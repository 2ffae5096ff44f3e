/**
 * @file
 * The multiscalar processor (paper Figure 1): a sequencer walking the
 * program's control flow graph task by task, assigning tasks to a
 * circular queue of processing units, with register values forwarded
 * over a unidirectional ring and memory speculation resolved by the
 * ARB.
 *
 * Sequencing per cycle:
 *   1. the ring moves register values one hop;
 *   2. every unit advances one cycle (head first);
 *   3. deferred events are processed: memory dependence violations
 *      (squash the violating task and all after it), task exits
 *      (validate the successor prediction; mispredicts squash all
 *      later tasks and redirect the walk), and ARB capacity policy;
 *   4. the head task retires if done (ARB stores commit);
 *   5. one new task is assigned at the tail if a unit is free and
 *      the task descriptor is available (descriptor cache).
 *
 * Register state at assignment follows the multi-version register
 * file of Breach et al. [1], modeled as the sequencer's "walk
 * ledger": for every register, the walk state is either a known
 * value (the last value forwarded on the ring by any task up to this
 * point of the walk) or a reservation naming the active producer
 * task that will forward it. A new task starts from the ledger:
 * known values are available immediately (the hardware's register
 * banks latched them as they passed on the ring); reserved registers
 * wait for the producer's physical ring message, paying real ring
 * latency and bandwidth. On a squash the ledger is rebuilt from the
 * architectural state plus the surviving tasks' create/forwarded
 * masks, just as the hardware's bank valid bits are restored.
 */

#ifndef MSIM_CORE_MULTISCALAR_PROCESSOR_HH
#define MSIM_CORE_MULTISCALAR_PROCESSOR_HH

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/mem_dep.hh"
#include "analysis/verifier.hh"
#include "arb/arb.hh"
#include "common/stats.hh"
#include "core/ms_config.hh"
#include "core/run_result.hh"
#include "mem/banked_dcache.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/l2_cache.hh"
#include "mem/main_memory.hh"
#include "mem/mem_level.hh"
#include "predict/descriptor_cache.hh"
#include "predict/return_stack.hh"
#include "predict/task_predictor.hh"
#include "program/program.hh"
#include "pu/processing_unit.hh"
#include "pu/pu_context.hh"
#include "ring/forward_ring.hh"
#include "sim/syscalls.hh"
#include "trace/cycle_accounting.hh"
#include "trace/tracer.hh"

namespace msim {

/** The multiscalar machine. */
class MultiscalarProcessor : public PuContext
{
  public:
    MultiscalarProcessor(const Program &program, const MsConfig &config);

    /** Provide the integer input stream for syscall 5. */
    void setInput(std::deque<std::int32_t> input);

    /** Run to the exit syscall (or @p max_cycles). */
    RunResult run(Cycle max_cycles = 1'000'000'000);

    /** @return direct access to the functional memory (test setup). */
    MainMemory &memory() { return mem_; }

    /** @return the collected statistics. */
    const StatRegistry &stats() const { return stats_; }

    // --- PuContext ---------------------------------------------------
    const isa::Instruction *instrAt(Addr pc) override;
    Cycle icacheAccess(unsigned unit, Cycle now, Addr pc) override;
    Cycle dcacheAccess(unsigned unit, Cycle now, Addr addr,
                       bool write) override;
    bool memHasSpace(unsigned unit, Addr addr, unsigned size,
                     bool is_load) override;
    std::uint64_t memLoad(unsigned unit, Addr addr,
                          unsigned size) override;
    void memStore(unsigned unit, Addr addr, unsigned size,
                  std::uint64_t value) override;
    void forwardReg(unsigned unit, RegIndex reg,
                    isa::RegValue value) override;
    bool syscallAllowed(unsigned unit) override;
    isa::RegValue doSyscall(unsigned unit, isa::RegValue v0,
                            isa::RegValue a0, isa::RegValue a1) override;
    void taskExited(unsigned unit, Addr next_task) override;

  private:
    /** Sequencer bookkeeping for an assigned task. */
    struct ActiveTask
    {
        TaskSeq seq = 0;
        Addr start = 0;
        const TaskDescriptor *desc = nullptr;
        /** Resolved address the sequencer predicted we exit to. */
        Addr predictedNext = 0;
        /** Did the prediction count toward accuracy statistics? */
        bool counted = false;
        /** RAS state before this task's successor was predicted. */
        ReturnStack::Checkpoint rasCp;
    };

    /** A task-exit event deferred to the end of the cycle. */
    struct ExitEvent
    {
        unsigned unit;
        TaskSeq seq;
        Addr actual;
    };

    // --- cycle phases -------------------------------------------------
    void ringPhase(Cycle now);
    void unitsPhase(Cycle now);
    void deferredPhase(Cycle now);
    void retirePhase(Cycle now);
    void assignPhase(Cycle now);

    /**
     * The earliest cycle after @p now at which any component (ring,
     * sequencer, retirement, any processing unit) can make progress.
     * Side-effect free; called after a full cycle has been ticked.
     * now + 1 means "no skip possible"; kCycleNever means nothing is
     * scheduled (a stopped walk with no active task — deadlock).
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Bulk-account @p n skipped quiescent cycles on every unit. */
    void accountSkip(std::uint64_t n);

    // --- helpers ------------------------------------------------------
    unsigned unitAt(unsigned position) const;
    unsigned positionOf(unsigned unit) const;
    bool unitIsHead(unsigned unit) const;
    TaskSeq seqOf(unsigned unit) const;
    ProcessingUnit &pu(unsigned unit) { return *units_[unit]; }
    const ProcessingUnit &pu(unsigned unit) const { return *units_[unit]; }

    /**
     * Squash every active task with seq >= @p from, counting the squash
     * in @p reason (whose name also labels the trace instant).
     */
    void squashFrom(TaskSeq from, Counter &reason);

    /** Resolve a predicted target to an address (RAS effects). */
    Addr resolveTarget(const TaskTarget &target);

    /** Find the target index a task actually exited through. */
    unsigned actualTargetIndex(const ActiveTask &task, Addr actual) const;

    void validateExit(const ExitEvent &event);

    // --- members ------------------------------------------------------
    const Program &program_;
    MsConfig config_;
    StatRegistry stats_;
    /** The first group registered, so "core" leads the stats dump. */
    StatGroup &coreStats_ = stats_.group("core");
    Counter assignments_{coreStats_, "assignments"};
    Counter arbFullStalls_{coreStats_, "arbFullStalls"};
    Counter squashControl_{coreStats_, "squash_control"};
    Counter squashMemory_{coreStats_, "squash_memory"};
    Counter squashArbFull_{coreStats_, "squash_arbfull"};
    Counter ffJumps_{coreStats_, "ffJumps"};
    Counter ffSkippedCycles_{coreStats_, "ffSkippedCycles"};
    Counter traceEvents_{coreStats_, "traceEvents"};
    Counter traceDropped_{coreStats_, "traceDropped"};
    /** Only constructed when config.trace.enabled. */
    std::unique_ptr<Tracer> tracer_;
    CycleAccounting acct_;
    MainMemory mem_;
    std::unique_ptr<MemoryBus> bus_;
    /** The L1s' next level: the shared L2, or the bus adapter. */
    std::unique_ptr<L2Cache> l2_;
    std::unique_ptr<BusMemLevel> busLevel_;
    std::vector<std::unique_ptr<Cache>> icaches_;
    std::unique_ptr<BankedDataCache> dcache_;
    std::unique_ptr<Arb> arb_;
    std::unique_ptr<ForwardRing> ring_;
    std::unique_ptr<TaskPredictor> predictor_;
    std::unique_ptr<ReturnStack> ras_;
    std::unique_ptr<DescriptorCache> descCache_;
    std::unique_ptr<SyscallHandler> syscalls_;
    /** Static per-task facts backing the write-set oracle. */
    std::unique_ptr<analysis::AnnotationVerifier> oracle_;
    /** Static conflict prediction backing the mem-dep oracle. */
    std::unique_ptr<analysis::MemDepAnalysis> memDep_;
    std::vector<std::unique_ptr<ProcessingUnit>> units_;
    std::vector<ActiveTask> taskInfo_;

    /** Circular queue state. */
    unsigned head_ = 0;
    unsigned numActive_ = 0;
    TaskSeq nextSeq_ = 1;

    /** The sequencer's next step in the CFG walk (none = stopped). */
    std::optional<Addr> nextTaskAddr_;
    Addr descFetchAddr_ = kBadAddr;
    Cycle descReadyAt_ = 0;

    /** Architectural registers as of the last retired task. */
    std::array<isa::RegValue, kNumRegs> archRegs_{};

    /** The sequencer's per-register walk state (see class comment). */
    struct WalkReg
    {
        isa::RegValue value;
        bool pending = false;
        TaskSeq producer = 0;
    };
    std::array<WalkReg, kNumRegs> walkRegs_{};

    /** Rebuild the walk ledger after a squash. */
    void rebuildWalkRegs();

    /** Deferred events. */
    std::vector<ExitEvent> exitEvents_;
    std::optional<TaskSeq> pendingViolation_;
    bool arbFullEvent_ = false;

    /** Accumulating results. */
    RunResult result_;
    bool started_ = false;

    /**
     * Cycle-exact fast-forward enabled for this run (config flag,
     * minus the MSIM_NO_FASTFORWARD escape hatch, minus tracing —
     * skipping would drop per-cycle trace samples).
     */
    bool fastForward_ = false;
};

} // namespace msim

#endif // MSIM_CORE_MULTISCALAR_PROCESSOR_HH
