/**
 * @file
 * One multiscalar processing unit (paper Figure 1): a five-stage
 * pipeline that independently fetches and executes the instructions
 * of its assigned task until it encounters an instruction whose stop
 * condition is satisfied.
 *
 * The unit owns a private copy of the register file. Reservations
 * (from the accum mask, the union of active predecessors' pending
 * create masks) mark registers whose values will arrive over the
 * unidirectional ring; instructions that need them wait. Values the
 * task produces are sent to successors when an instruction tagged
 * with the forward bit writes them, when a release instruction
 * releases them, or — for any register in the create mask not yet
 * sent — automatically when the task completes.
 *
 * Issue models:
 *  - in-order: instructions issue from the window head in program
 *    order, stalling on the first non-ready instruction;
 *  - out-of-order: a scoreboarded window issues any ready
 *    instruction oldest-first, with WAW/WAR stalls, in-order issue
 *    among memory operations, and no issue past an unresolved
 *    branch or syscall (so no register state ever needs rollback).
 * Both complete out of order (paper section 5.1).
 *
 * Intra-task branches resolve one cycle after issue. Fetch follows a
 * static policy (stop-bit aware: backward taken / forward not-taken,
 * !st not-taken, !sn taken) or an optional bimodal predictor; either
 * way mispredicted fetch directions only cost flushed fetches, never
 * executed instructions.
 */

#ifndef MSIM_PU_PROCESSING_UNIT_HH
#define MSIM_PU_PROCESSING_UNIT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/fifo.hh"
#include "common/reg_mask.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/exec.hh"
#include "isa/instruction.hh"
#include "pu/pu_config.hh"
#include "pu/pu_context.hh"
#include "trace/cycle_accounting.hh"
#include "trace/tracer.hh"

namespace msim {

/** Where a unit's cycles go (paper section 3 accounting). */
struct CycleBreakdown
{
    std::uint64_t busy = 0;        //!< issued at least one instruction
    std::uint64_t waitPred = 0;    //!< stalled on a predecessor value
    std::uint64_t waitIntra = 0;   //!< stalled on intra-task latency
    std::uint64_t fetchStall = 0;  //!< window empty (icache, redirect)
    std::uint64_t waitRetire = 0;  //!< task done, waiting to retire

    std::uint64_t
    total() const
    {
        return busy + waitPred + waitIntra + fetchStall + waitRetire;
    }

    CycleBreakdown &
    operator+=(const CycleBreakdown &o)
    {
        busy += o.busy;
        waitPred += o.waitPred;
        waitIntra += o.waitIntra;
        fetchStall += o.fetchStall;
        waitRetire += o.waitRetire;
        return *this;
    }
};

/** Counters for one task execution, folded at retire or squash. */
struct TaskStats
{
    std::uint64_t instructions = 0;
    CycleBreakdown cycles;
};

/** A single processing unit. */
class ProcessingUnit
{
  public:
    enum class Status : std::uint8_t {
        kFree,     //!< no assigned task
        kRunning,  //!< fetching/executing its task
        kExited,   //!< stop resolved; draining in-flight work
        kDone,     //!< everything complete; awaiting retirement
    };

    /**
     * @param acct Optional cycle-accounting sink; every tick of an
     *        assigned task records one pending category for this
     *        unit's id.
     * @param tracer Optional event tracer (occupancy counters).
     */
    ProcessingUnit(unsigned id, const PuConfig &config, PuContext &ctx,
                   StatGroup &stats, CycleAccounting *acct = nullptr,
                   Tracer *tracer = nullptr);

    /**
     * Assign a task (or, for the scalar baseline, the whole program).
     *
     * @param seq Task sequence number.
     * @param start_pc First instruction.
     * @param create_mask Registers this task may produce.
     * @param busy_mask Registers whose values are still to arrive
     *        from predecessors (reservations).
     * @param init_regs Initial register values (64 entries), or
     *        nullptr to keep the unit's current values.
     * @param expected_producers For each reserved register, the task
     *        sequence number of the nearest active predecessor that
     *        will supply it (ring deliveries from any other producer
     *        are ignored — in hardware those messages are consumed
     *        earlier on the ring). May be nullptr when busy_mask is
     *        empty.
     */
    void assignTask(TaskSeq seq, Addr start_pc,
                    const RegMask &create_mask, const RegMask &busy_mask,
                    const isa::RegValue *init_regs,
                    const TaskSeq *expected_producers = nullptr);

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * The earliest cycle after @p now at which this unit's tick
     * could do anything beyond re-recording the same stall category
     * — i.e. the unit's next event, assuming no external input (no
     * ring delivery, no head change) arrives in between. Querying is
     * side-effect free; call it after tick(now). Returns kCycleNever
     * when only external input can wake the unit (or it is free).
     *
     * The run loop may skip straight to the minimum next event over
     * all components; accountSkippedCycles() settles the books for
     * the skipped span. See DESIGN.md "Quiescence & fast-forward".
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * @return true when the last tick changed no unit state (and no
     * external call — delivery, assignment, squash — arrived since).
     * Cheap pre-filter for nextEventCycle(): a unit with activity
     * may act again next cycle, so a scan would be wasted.
     */
    bool quiescentLastTick() const { return !activity_; }

    /**
     * Account @p n fast-forwarded cycles: the run loop proved that
     * each of them would have recorded exactly the stall category
     * classifyCycle(0) yields on the current (unchanging) state, or
     * idle when the unit is free. Updates the exact CycleAccounting
     * and the legacy per-task breakdown identically to @p n ticks.
     */
    void accountSkippedCycles(std::uint64_t n);

    /**
     * Squash: discard all task state.
     * @return the task's counters (squashed work).
     */
    TaskStats flush();

    /**
     * Retire the (done) task at the head.
     * @return the task's counters (useful work).
     */
    TaskStats retire();

    /** A register value arriving over the ring from @p producer. */
    void deliverForward(RegIndex reg, isa::RegValue value,
                        TaskSeq producer);

    /**
     * Arm the dynamic write-set oracle for the current task: at
     * retire, the registers the task actually wrote must be
     * contained in @p may_write and the registers it explicitly
     * forwarded (!f or release) in @p may_forward, both computed by
     * the static annotation verifier (src/analysis/). A violation
     * means the static analysis or the pipeline operand model is
     * unsound, so it panics. Call after assignTask(); assigning the
     * next task disarms the oracle. Squashed tasks are not checked:
     * a wrong-path task can take a jr through a garbage register
     * value and execute instructions the static walk never maps to
     * this task.
     */
    void setWriteOracle(const RegMask &may_write,
                        const RegMask &may_forward);

    Status status() const { return status_; }
    bool isFree() const { return status_ == Status::kFree; }
    bool isDone() const { return status_ == Status::kDone; }
    TaskSeq seq() const { return seq_; }
    unsigned id() const { return id_; }

    /** Registers already sent to successors this task. */
    const RegMask &forwardedMask() const { return forwardedMask_; }

    /** The value that was forwarded for @p reg (it must have been). */
    isa::RegValue
    forwardedValue(RegIndex reg) const
    {
        panicIf(!forwardedMask_.test(reg),
                "forwardedValue of an unforwarded register");
        return forwardedValues_[size_t(reg)];
    }

    /** This task's create mask. */
    const RegMask &createMask() const { return createMask_; }

    /** Current register values (64), e.g. to seed a successor. */
    std::array<isa::RegValue, kNumRegs> regValues() const;

    /** Actual successor address; valid once status >= kExited. */
    Addr exitTarget() const { return exitTarget_; }
    bool hasExited() const
    {
        return status_ == Status::kExited || status_ == Status::kDone;
    }

    /** Counters of the task currently in flight. */
    const TaskStats &currentTaskStats() const { return taskStats_; }

  private:
    /** Per-register scoreboard state. */
    struct RegState
    {
        isa::RegValue value;
        bool awaitingPred = false;  //!< reservation on the ring
        bool writerIssued = false;  //!< a local writer has issued
        bool writtenWB = false;     //!< a local writer has written back
        std::uint8_t pendingWriters = 0;
    };

    /** A fetched, decoded instruction awaiting dispatch. */
    struct Fetched
    {
        const isa::Instruction *inst;
        Addr pc;
        Cycle readyAt;       //!< decode complete
        bool predTaken;      //!< fetch direction assumed
    };

    /** An instruction in the issue window. */
    struct Slot
    {
        const isa::Instruction *inst = nullptr;
        Addr pc = 0;
        bool issued = false;
        bool done = false;
        Cycle doneAt = 0;
        bool predTaken = false;
        isa::RegValue result;
        isa::BranchResult branch;
    };

    // --- tick phases -------------------------------------------------
    void completePhase(Cycle now);
    unsigned issuePhase(Cycle now);
    void dispatchPhase(Cycle now);
    void fetchPhase(Cycle now);
    void autoReleasePhase();
    void accountCycle(Cycle now, unsigned issued_count);
    void addToBreakdown(CycleCat cat, std::uint64_t n);

    // --- helpers -----------------------------------------------------
    CycleCat classifyCycle(unsigned issued_count) const;
    bool memOpInFlight() const;
    bool regReadReady(RegIndex reg) const;
    isa::RegValue regRead(RegIndex reg) const;
    bool slotReady(const Slot &slot, size_t index, Cycle now) const;
    bool tryIssue(Slot &slot, Cycle now);
    void noteIssueDest(RegIndex reg);
    void writeback(const Slot &slot);
    void forwardValue(RegIndex reg, isa::RegValue value);
    void resolveBranch(Slot &slot, size_t index, Cycle now);
    void flushYounger(size_t index);
    void exitTask(Addr successor);
    bool predictTaken(const isa::Instruction &inst, Addr pc) const;
    void trainBranch(Addr pc, bool taken);
    bool anyInFlight() const;
    void maybeFinish();

    // --- identity / wiring -------------------------------------------
    unsigned id_;
    PuConfig config_;
    PuContext &ctx_;
    StatGroup &stats_;
    CycleAccounting *acct_ = nullptr;
    Tracer *tracer_ = nullptr;
    /** Stable storage for this unit's trace counter name. */
    std::string occupancyName_;

    // --- stats ----------------------------------------------------------
    Counter tasksAssigned_{stats_, "tasksAssigned"};
    Counter tasksSquashed_{stats_, "tasksSquashed"};
    Counter tasksRetired_{stats_, "tasksRetired"};
    Counter instructions_{stats_, "instructions"};
    Counter forwards_{stats_, "forwards"};
    Counter releases_{stats_, "releases"};
    Counter implicitReleases_{stats_, "implicitReleases"};
    Counter branchMispredicts_{stats_, "branchMispredicts"};
    Counter fetchOffText_{stats_, "fetchOffText"};

    // --- task state ---------------------------------------------------
    Status status_ = Status::kFree;
    TaskSeq seq_ = 0;
    RegMask createMask_;
    RegMask forwardedMask_;
    Addr exitTarget_ = 0;
    TaskStats taskStats_;

    // --- write-set oracle ---------------------------------------------
    bool oracleArmed_ = false;
    RegMask oracleMayWrite_;
    RegMask oracleMayForward_;
    /** Registers the current task has written back. */
    RegMask writtenMask_;
    /** Registers explicitly forwarded (!f writeback or release). */
    RegMask explicitFwdMask_;

    std::array<RegState, kNumRegs> regs_;
    std::array<TaskSeq, kNumRegs> expectedProducer_{};
    std::array<isa::RegValue, kNumRegs> forwardedValues_{};

    // --- pipeline state ------------------------------------------------
    /** Pre-sized ring buffers: no heap churn on the per-cycle path. */
    RingFifo<Fetched> fetchBuf_;
    RingFifo<Slot> window_;
    Addr fetchPc_ = 0;
    bool fetchEnabled_ = false;
    bool awaitRedirect_ = false;   //!< jr/jalr target pending
    Cycle pendingFetchReady_ = 0;  //!< icache miss outstanding
    /**
     * Did the last tick (or any external call since) change unit
     * state? The run loop only evaluates nextEventCycle() once a
     * tick passed with no activity, so busy cycles pay one flag
     * check instead of a window scan. Purely a performance gate:
     * skipping fewer cycles never changes observable timing.
     */
    bool activity_ = true;
    /** Per-cycle acceptance counters of the pipelined FUs. */
    std::array<unsigned, size_t(isa::FuKind::kNumFuKinds)> fuAccepts_{};

    /** Optional intra-unit bimodal predictor. */
    std::vector<SatCounter> branchTable_;
};

} // namespace msim

#endif // MSIM_PU_PROCESSING_UNIT_HH
