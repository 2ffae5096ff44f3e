#include "pu/processing_unit.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/registers.hh"

namespace msim {

namespace {

using isa::FuKind;
using isa::InstClass;
using isa::Instruction;
using isa::Opcode;
using isa::RegValue;
using isa::StopKind;

using isa::destOf;
using isa::sourcesOf;

/** Does this instruction act as an issue barrier (control/syscall)? */
bool
isBarrier(const Instruction &inst)
{
    return inst.isControlOp() || inst.cls() == InstClass::kSyscall;
}

} // namespace

ProcessingUnit::ProcessingUnit(unsigned id, const PuConfig &config,
                               PuContext &ctx, StatGroup &stats,
                               CycleAccounting *acct, Tracer *tracer)
    : id_(id), config_(config), ctx_(ctx), stats_(stats), acct_(acct),
      tracer_(tracer),
      occupancyName_("pu" + std::to_string(id) + ".occupancy")
{
    fatalIf(config.issueWidth == 0 || config.issueWidth > 2,
            "issue width must be 1 or 2");
    fatalIf(config.windowSize == 0, "window size must be positive");
    if (config.intraBranchPredict)
        branchTable_.assign(config.branchPredictorEntries,
                            SatCounter(2, 1));
    fetchBuf_.reserve(config.fetchBufferSize);
    window_.reserve(config.windowSize);
}

void
ProcessingUnit::assignTask(TaskSeq seq, Addr start_pc,
                           const RegMask &create_mask,
                           const RegMask &busy_mask,
                           const RegValue *init_regs,
                           const TaskSeq *expected_producers)
{
    panicIf(status_ != Status::kFree, "assignTask to a busy unit");
    panicIf(!busy_mask.empty() && !expected_producers,
            "reserved registers need expected producers");
    activity_ = true;
    seq_ = seq;
    createMask_ = create_mask;
    forwardedMask_ = RegMask();
    exitTarget_ = 0;
    taskStats_ = TaskStats{};
    for (int r = 0; r < kNumRegs; ++r) {
        RegState &st = regs_[size_t(r)];
        if (init_regs)
            st.value = init_regs[r];
        st.awaitingPred = r != 0 && busy_mask.test(r);
        st.writerIssued = false;
        st.writtenWB = false;
        st.pendingWriters = 0;
        expectedProducer_[size_t(r)] =
            st.awaitingPred ? expected_producers[r] : 0;
    }
    regs_[0].value = RegValue::fromWord(0);
    window_.clear();
    fetchBuf_.clear();
    fetchPc_ = start_pc;
    fetchEnabled_ = true;
    awaitRedirect_ = false;
    pendingFetchReady_ = 0;
    status_ = Status::kRunning;
    oracleArmed_ = false;
    writtenMask_ = RegMask();
    explicitFwdMask_ = RegMask();
    tasksAssigned_.add();
}

void
ProcessingUnit::setWriteOracle(const RegMask &may_write,
                               const RegMask &may_forward)
{
    panicIf(status_ == Status::kFree,
            "setWriteOracle needs an assigned task");
    oracleArmed_ = true;
    oracleMayWrite_ = may_write;
    oracleMayForward_ = may_forward;
}

TaskStats
ProcessingUnit::flush()
{
    activity_ = true;
    TaskStats out = taskStats_;
    window_.clear();
    fetchBuf_.clear();
    pendingFetchReady_ = 0;
    awaitRedirect_ = false;
    fetchEnabled_ = false;
    status_ = Status::kFree;
    tasksSquashed_.add();
    return out;
}

TaskStats
ProcessingUnit::retire()
{
    panicIf(status_ != Status::kDone, "retire of a non-done unit");
    if (oracleArmed_) {
        // The task ran to completion on the correct path: everything
        // it did must have been foreseen by the static analysis.
        const RegMask wrote = writtenMask_ - oracleMayWrite_;
        panicIf(!wrote.empty(),
                "write-set oracle: unit ", id_, " wrote {",
                wrote.toString(),
                "} outside the static may-write set {",
                oracleMayWrite_.toString(), "}");
        const RegMask fwd = explicitFwdMask_ - oracleMayForward_;
        panicIf(!fwd.empty(),
                "write-set oracle: unit ", id_,
                " explicitly forwarded {", fwd.toString(),
                "} outside the static forward-point set {",
                oracleMayForward_.toString(), "}");
    }
    activity_ = true;
    TaskStats out = taskStats_;
    status_ = Status::kFree;
    tasksRetired_.add();
    return out;
}

std::array<RegValue, kNumRegs>
ProcessingUnit::regValues() const
{
    std::array<RegValue, kNumRegs> out;
    for (int r = 0; r < kNumRegs; ++r)
        out[size_t(r)] = regs_[size_t(r)].value;
    return out;
}

void
ProcessingUnit::deliverForward(RegIndex reg, RegValue value,
                               TaskSeq producer)
{
    if (status_ == Status::kFree || reg <= 0 || reg >= kNumRegs)
        return;
    RegState &st = regs_[size_t(reg)];
    if (!st.awaitingPred)
        return;
    if (producer != expectedProducer_[size_t(reg)])
        return;  // from a farther or stale producer; ignore
    activity_ = true;
    // A local write shadows the incoming (logically older) value.
    if (!st.writerIssued && !st.writtenWB)
        st.value = value;
    st.awaitingPred = false;
}

bool
ProcessingUnit::regReadReady(RegIndex reg) const
{
    if (reg <= 0 || reg >= kNumRegs)
        return true;
    const RegState &st = regs_[size_t(reg)];
    if (st.pendingWriters > 0)
        return false;
    return !st.awaitingPred || st.writtenWB;
}

RegValue
ProcessingUnit::regRead(RegIndex reg) const
{
    if (reg <= 0 || reg >= kNumRegs)
        return RegValue::fromWord(0);
    return regs_[size_t(reg)].value;
}

void
ProcessingUnit::noteIssueDest(RegIndex reg)
{
    if (reg <= 0 || reg >= kNumRegs)
        return;
    RegState &st = regs_[size_t(reg)];
    ++st.pendingWriters;
    st.writerIssued = true;
}

void
ProcessingUnit::forwardValue(RegIndex reg, RegValue value)
{
    if (reg <= 0 || reg >= kNumRegs)
        return;
    if (forwardedMask_.test(reg))
        return;  // a value is sent at most once per task
    panicIf(!createMask_.test(reg),
            "unit ", id_, " forwards ", isa::regName(reg),
            " which is not in the task's create mask");
    activity_ = true;
    forwardedMask_.set(reg);
    forwardedValues_[size_t(reg)] = value;
    ctx_.forwardReg(id_, reg, value);
    forwards_.add();
}

bool
ProcessingUnit::predictTaken(const Instruction &inst, Addr pc) const
{
    if (inst.isJump() || inst.isAlwaysTaken())
        return true;
    if (inst.isNeverTaken())
        return false;
    switch (inst.tags.stop) {
      case StopKind::kIfTaken:
        return false;  // common case: stay in the task
      case StopKind::kIfNotTaken:
        return true;   // common case: stay in the task
      default:
        break;
    }
    if (config_.intraBranchPredict && !branchTable_.empty()) {
        const auto &ctr =
            branchTable_[size_t(pc / kInstrBytes) % branchTable_.size()];
        return ctr.taken();
    }
    // Static: backward taken, forward not taken.
    return inst.target <= pc;
}

void
ProcessingUnit::trainBranch(Addr pc, bool taken)
{
    if (!config_.intraBranchPredict || branchTable_.empty())
        return;
    auto &ctr =
        branchTable_[size_t(pc / kInstrBytes) % branchTable_.size()];
    if (taken)
        ctr.increment();
    else
        ctr.decrement();
}

void
ProcessingUnit::flushYounger(size_t index)
{
    for (size_t i = index + 1; i < window_.size(); ++i) {
        panicIf(window_[i].issued && !window_[i].done,
                "flushing an in-flight younger instruction");
    }
    window_.truncate(index + 1);
    fetchBuf_.clear();
    pendingFetchReady_ = 0;
}

void
ProcessingUnit::exitTask(Addr successor)
{
    panicIf(status_ != Status::kRunning, "task exit while not running");
    status_ = Status::kExited;
    exitTarget_ = successor;
    fetchEnabled_ = false;
    awaitRedirect_ = false;
    fetchBuf_.clear();
    pendingFetchReady_ = 0;
    ctx_.taskExited(id_, successor);
}

void
ProcessingUnit::resolveBranch(Slot &slot, size_t index, Cycle now)
{
    (void)now;
    const Instruction &inst = *slot.inst;
    const bool taken = slot.branch.taken;
    const Addr fallthrough = slot.pc + kInstrBytes;
    const Addr next = taken ? slot.branch.target : fallthrough;

    if (inst.isCondBranch())
        trainBranch(slot.pc, taken);

    const StopKind stop = inst.tags.stop;
    const bool exits = stop == StopKind::kAlways ||
                       (stop == StopKind::kIfTaken && taken) ||
                       (stop == StopKind::kIfNotTaken && !taken);
    if (exits) {
        flushYounger(index);
        exitTask(next);
        return;
    }

    if (inst.op == Opcode::kJr || inst.op == Opcode::kJalr) {
        // Fetch was stalled on this unknown target.
        awaitRedirect_ = false;
        flushYounger(index);
        fetchPc_ = next;
        fetchEnabled_ = true;
        return;
    }
    if (taken != slot.predTaken) {
        branchMispredicts_.add();
        flushYounger(index);
        awaitRedirect_ = false;  // any younger jr was just flushed
        fetchPc_ = next;
        fetchEnabled_ = true;
    }
}

void
ProcessingUnit::writeback(const Slot &slot)
{
    const Instruction &inst = *slot.inst;
    const RegIndex dest = destOf(inst);
    if (dest > 0 && dest < kNumRegs) {
        RegState &st = regs_[size_t(dest)];
        st.value = slot.result;
        panicIf(st.pendingWriters == 0, "writeback without pending writer");
        --st.pendingWriters;
        st.writtenWB = true;
        writtenMask_.set(dest);
    }
    if (inst.tags.forward) {
        panicIf(dest == kNoReg,
                "forward bit on an instruction with no destination");
        if (dest > 0) {
            explicitFwdMask_.set(dest);
            forwardValue(dest, slot.result);
        }
    }
    taskStats_.instructions += 1;
    instructions_.add();
}

void
ProcessingUnit::completePhase(Cycle now)
{
    for (size_t i = 0; i < window_.size(); ++i) {
        Slot &slot = window_[i];
        if (!slot.issued || slot.done || slot.doneAt > now)
            continue;
        slot.done = true;
        activity_ = true;
        writeback(slot);
        const Instruction &inst = *slot.inst;
        if (inst.isControlOp()) {
            resolveBranch(slot, i, now);
            if (status_ != Status::kRunning)
                break;
        } else if (inst.tags.stop == StopKind::kAlways) {
            flushYounger(i);
            exitTask(slot.pc + kInstrBytes);
            break;
        }
    }
    // Pop completed instructions from the window head.
    while (!window_.empty() && window_.front().done)
        window_.pop_front();
}

bool
ProcessingUnit::slotReady(const Slot &slot, size_t index, Cycle now) const
{
    (void)now;
    const Instruction &inst = *slot.inst;

    // Operand readiness.
    RegIndex srcs[4];
    const unsigned nsrc = sourcesOf(inst, srcs);
    for (unsigned s = 0; s < nsrc; ++s) {
        if (!regReadReady(srcs[s]))
            return false;
    }

    const RegIndex dest = destOf(inst);
    if (dest > 0 && dest < kNumRegs &&
        regs_[size_t(dest)].pendingWriters > 0)
        return false;  // WAW against an in-flight writer

    // Memory operations issue in program order among themselves.
    if (inst.isMemOp()) {
        for (size_t j = 0; j < index; ++j) {
            if (!window_[j].issued && window_[j].inst->isMemOp())
                return false;
        }
    }

    // Syscalls execute only as the oldest instruction, at the head.
    if (inst.cls() == InstClass::kSyscall) {
        if (index != 0)
            return false;
        if (!ctx_.syscallAllowed(id_))
            return false;
    }

    if (config_.outOfOrder) {
        // Scoreboard hazards against older, un-issued instructions.
        for (size_t j = 0; j < index; ++j) {
            const Slot &older = window_[j];
            if (older.issued)
                continue;
            const Instruction &oinst = *older.inst;
            const RegIndex odest = destOf(oinst);
            // RAW: older writes one of our sources.
            for (unsigned s = 0; s < nsrc; ++s) {
                if (odest != kNoReg && odest == srcs[s])
                    return false;
            }
            // WAR / WAW: older reads or writes our destination.
            if (dest != kNoReg) {
                if (odest == dest)
                    return false;
                RegIndex osrcs[4];
                const unsigned on = sourcesOf(oinst, osrcs);
                for (unsigned s = 0; s < on; ++s) {
                    if (osrcs[s] == dest)
                        return false;
                }
            }
        }
    }
    return true;
}

bool
ProcessingUnit::tryIssue(Slot &slot, Cycle now)
{
    const Instruction &inst = *slot.inst;
    const InstClass cls = inst.cls();
    const FuKind fu = isa::fuKind(cls);

    // Pipelined FUs: per-cycle acceptance capacity.
    const unsigned capacity =
        fu == FuKind::kSimpleInt ? config_.numSimpleIntFus() : 1;
    if (fuAccepts_[size_t(fu)] >= capacity)
        return false;

    const RegValue rs_val = regRead(inst.rs);
    const RegValue rt_val = regRead(inst.rt);

    switch (cls) {
      case InstClass::kLoad: {
        const Addr addr = isa::memAddr(inst, rs_val);
        const unsigned size = isa::memSize(inst.op);
        if (!ctx_.memHasSpace(id_, addr, size, true))
            return false;
        const std::uint64_t raw = ctx_.memLoad(id_, addr, size);
        slot.result = isa::loadResult(inst.op, raw);
        slot.doneAt = ctx_.dcacheAccess(id_, now + 1, addr, false);
        break;
      }
      case InstClass::kStore: {
        const Addr addr = isa::memAddr(inst, rs_val);
        const unsigned size = isa::memSize(inst.op);
        if (!ctx_.memHasSpace(id_, addr, size, false))
            return false;
        ctx_.memStore(id_, addr, size,
                      isa::storeBytes(inst.op, rt_val));
        ctx_.dcacheAccess(id_, now + 1, addr, true);
        slot.doneAt = now + 1;
        break;
      }
      case InstClass::kBranch:
        slot.branch = isa::evalBranch(inst, rs_val, rt_val);
        if (inst.op == Opcode::kJal || inst.op == Opcode::kJalr)
            slot.result = isa::evalAlu(inst, rs_val, rt_val, slot.pc);
        slot.doneAt = now + 1;
        break;
      case InstClass::kSyscall:
        slot.result = ctx_.doSyscall(
            id_, regRead(isa::intReg(isa::kRegV0)),
            regRead(isa::intReg(isa::kRegA0)),
            regRead(isa::intReg(isa::kRegA1)));
        slot.doneAt = now + 1;
        break;
      case InstClass::kRelease:
        if (inst.rs > 0) {
            explicitFwdMask_.set(inst.rs);
            forwardValue(inst.rs, regRead(inst.rs));
        }
        if (inst.rel2 > 0) {
            explicitFwdMask_.set(inst.rel2);
            forwardValue(inst.rel2, regRead(inst.rel2));
        }
        slot.doneAt = now + 1;
        releases_.add();
        break;
      case InstClass::kNop:
        slot.doneAt = now + 1;
        break;
      default:
        slot.result = isa::evalAlu(inst, rs_val, rt_val, slot.pc);
        slot.doneAt = now + isa::execLatency(cls);
        break;
    }

    slot.issued = true;
    fuAccepts_[size_t(fu)] += 1;
    noteIssueDest(destOf(inst));
    return true;
}

unsigned
ProcessingUnit::issuePhase(Cycle now)
{
    unsigned issued = 0;
    for (size_t i = 0; i < window_.size() && issued < config_.issueWidth;
         ++i) {
        Slot &slot = window_[i];
        if (slot.done)
            continue;
        if (slot.issued) {
            // No issue past an unresolved branch or syscall.
            if (isBarrier(*slot.inst))
                break;
            continue;
        }
        if (slotReady(slot, i, now) && tryIssue(slot, now)) {
            ++issued;
            if (isBarrier(*slot.inst))
                break;
            continue;
        }
        // In-order issue stalls at the first non-ready instruction;
        // out-of-order may look further (but never past a barrier).
        if (!config_.outOfOrder)
            break;
        if (isBarrier(*slot.inst))
            break;
    }
    return issued;
}

void
ProcessingUnit::dispatchPhase(Cycle now)
{
    if (status_ != Status::kRunning)
        return;
    unsigned moved = 0;
    while (!fetchBuf_.empty() && moved < config_.issueWidth &&
           window_.size() < config_.windowSize &&
           fetchBuf_.front().readyAt <= now) {
        const Fetched &f = fetchBuf_.front();
        Slot slot;
        slot.inst = f.inst;
        slot.pc = f.pc;
        slot.predTaken = f.predTaken;
        window_.push_back(slot);
        fetchBuf_.pop_front();
        ++moved;
    }
    if (moved > 0)
        activity_ = true;
}

void
ProcessingUnit::fetchPhase(Cycle now)
{
    if (status_ != Status::kRunning || !fetchEnabled_ || awaitRedirect_)
        return;
    if (fetchBuf_.size() + config_.issueWidth > config_.fetchBufferSize)
        return;

    if (pendingFetchReady_ != 0) {
        if (now < pendingFetchReady_)
            return;  // icache miss still outstanding (quiescent)
        pendingFetchReady_ = 0;
        activity_ = true;
    } else {
        const Cycle ready = ctx_.icacheAccess(id_, now, fetchPc_);
        activity_ = true;
        if (ready > now + 1) {
            pendingFetchReady_ = ready;
            return;
        }
    }

    // Deliver up to issueWidth sequential instructions.
    for (unsigned k = 0; k < config_.issueWidth; ++k) {
        const Instruction *inst = ctx_.instrAt(fetchPc_);
        if (!inst) {
            // Ran off the program text (wrong path); stop fetching.
            fetchEnabled_ = false;
            fetchOffText_.add();
            return;
        }
        Fetched f;
        f.inst = inst;
        f.pc = fetchPc_;
        f.readyAt = now + 1;
        f.predTaken = false;

        bool break_group = false;
        if (inst->isJump()) {
            f.predTaken = true;
            if (inst->op == Opcode::kJ || inst->op == Opcode::kJal) {
                fetchPc_ = inst->target;
            } else {
                awaitRedirect_ = true;  // jr/jalr: wait for resolve
            }
            break_group = true;
        } else if (inst->isCondBranch()) {
            f.predTaken = predictTaken(*inst, fetchPc_);
            if (f.predTaken) {
                fetchPc_ = inst->target;
                break_group = true;
            } else {
                fetchPc_ += kInstrBytes;
            }
        } else {
            fetchPc_ += kInstrBytes;
        }
        if (inst->tags.stop == StopKind::kAlways) {
            // Nothing of this task lies beyond a stop-always point.
            fetchEnabled_ = false;
            break_group = true;
        }
        fetchBuf_.push_back(f);
        if (break_group)
            break;
    }
}

void
ProcessingUnit::autoReleasePhase()
{
    if (status_ != Status::kExited)
        return;
    if (!window_.empty())
        return;  // older instructions may still write create-mask regs
    RegMask remaining = createMask_ - forwardedMask_;
    for (int r = 1; r < kNumRegs; ++r) {
        if (!remaining.test(r))
            continue;
        if (regReadReady(RegIndex(r))) {
            forwardValue(RegIndex(r), regRead(RegIndex(r)));
            implicitReleases_.add();
        }
    }
    maybeFinish();
}

bool
ProcessingUnit::anyInFlight() const
{
    for (size_t i = 0; i < window_.size(); ++i) {
        const Slot &slot = window_[i];
        if (slot.issued && !slot.done)
            return true;
    }
    return false;
}

void
ProcessingUnit::maybeFinish()
{
    if (status_ != Status::kExited)
        return;
    if (!window_.empty())
        return;
    if (!(createMask_ - forwardedMask_).empty())
        return;
    status_ = Status::kDone;
}

bool
ProcessingUnit::memOpInFlight() const
{
    for (size_t i = 0; i < window_.size(); ++i) {
        const Slot &slot = window_[i];
        if (slot.issued && !slot.done && slot.inst->isMemOp())
            return true;
    }
    return false;
}

/**
 * Classify what this (non-free, zero-issue unless busy) cycle was
 * spent on. The refinement over the legacy CycleBreakdown is the
 * memory-wait category: a stall whose oldest obstacle is a memory
 * operation (in flight in the dcache, or retrying against a full
 * ARB) is distinguished from generic intra-task latency.
 */
CycleCat
ProcessingUnit::classifyCycle(unsigned issued_count) const
{
    if (issued_count > 0)
        return CycleCat::kBusy;
    if (status_ == Status::kDone)
        return CycleCat::kRetireWait;
    if (status_ == Status::kExited && window_.empty())
        return CycleCat::kRetireWait;

    // Attribute the stall to the oldest un-issued instruction.
    const Slot *oldest = nullptr;
    for (size_t i = 0; i < window_.size(); ++i) {
        if (!window_[i].issued) {
            oldest = &window_[i];
            break;
        }
    }
    if (!oldest) {
        if (memOpInFlight())
            return CycleCat::kMemWait;
        if (anyInFlight())
            return CycleCat::kIntraWait;
        return status_ == Status::kRunning ? CycleCat::kFetchStall
                                           : CycleCat::kRetireWait;
    }
    RegIndex srcs[4];
    const unsigned nsrc = sourcesOf(*oldest->inst, srcs);
    for (unsigned s = 0; s < nsrc; ++s) {
        const RegIndex r = srcs[s];
        if (r > 0 && r < kNumRegs) {
            const RegState &st = regs_[size_t(r)];
            if (st.awaitingPred && !st.writtenWB &&
                st.pendingWriters == 0) {
                return CycleCat::kRingWait;
            }
        }
    }
    if (oldest->inst->isMemOp() || memOpInFlight())
        return CycleCat::kMemWait;
    return CycleCat::kIntraWait;
}

void
ProcessingUnit::addToBreakdown(CycleCat cat, std::uint64_t n)
{
    // Legacy per-task breakdown (kRingWait maps to waitPred; both
    // memory and generic latency stalls fold into waitIntra).
    CycleBreakdown &cb = taskStats_.cycles;
    switch (cat) {
      case CycleCat::kBusy:
        cb.busy += n;
        break;
      case CycleCat::kRingWait:
        cb.waitPred += n;
        break;
      case CycleCat::kMemWait:
      case CycleCat::kIntraWait:
        cb.waitIntra += n;
        break;
      case CycleCat::kFetchStall:
        cb.fetchStall += n;
        break;
      default:
        cb.waitRetire += n;
        break;
    }
}

void
ProcessingUnit::accountCycle(Cycle now, unsigned issued_count)
{
    (void)now;
    if (status_ == Status::kFree)
        return;
    const CycleCat cat = classifyCycle(issued_count);
    if (acct_)
        acct_->recordPending(id_, cat);
    addToBreakdown(cat, 1);
}

void
ProcessingUnit::accountSkippedCycles(std::uint64_t n)
{
    if (status_ == Status::kFree) {
        // Idle cycles belong to no task; they go straight to the
        // accounting's final counts (the endCycle default).
        if (acct_)
            acct_->recordSkippedIdle(id_, n);
        return;
    }
    // During a skipped span the unit's state does not change (the
    // run loop proved no completion, fetch, dispatch, issue or
    // delivery can happen before the next event), so every skipped
    // cycle classifies exactly as the current state with zero issues.
    const CycleCat cat = classifyCycle(0);
    if (acct_)
        acct_->recordSkipped(id_, cat, n);
    addToBreakdown(cat, n);
}

Cycle
ProcessingUnit::nextEventCycle(Cycle now) const
{
    if (status_ == Status::kFree)
        return kCycleNever;
    const Cycle soon = now + 1;
    Cycle next = kCycleNever;
    // Walk the window exactly like issuePhase: only slots the issue
    // logic can actually reach count as potential issue events. An
    // unreachable ready slot (past an in-order stall or a barrier)
    // cannot act before one of the in-flight completions below.
    bool issue_blocked = false;
    for (size_t i = 0; i < window_.size(); ++i) {
        const Slot &slot = window_[i];
        if (slot.done)
            continue;
        if (slot.issued) {
            // In-flight work completes at a known cycle.
            if (slot.doneAt < next)
                next = slot.doneAt;
            if (isBarrier(*slot.inst))
                issue_blocked = true;  // no issue past it until done
            continue;
        }
        if (!issue_blocked && slotReady(slot, i, now)) {
            // Operand-ready and reachable (held back only by issue
            // width, FU capacity, memory ordering retry, or a full
            // ARB): it may issue next cycle. Conservative — never
            // skip while anything could issue.
            return soon;
        }
        // Non-ready: in-order issue looks no further; out-of-order
        // continues, but never past a barrier.
        if (!config_.outOfOrder || isBarrier(*slot.inst))
            issue_blocked = true;
    }
    if (status_ == Status::kRunning) {
        // Dispatch: decoded instructions move into a non-full window.
        if (!fetchBuf_.empty() && window_.size() < config_.windowSize) {
            const Cycle ready = fetchBuf_.front().readyAt;
            next = std::min(next, ready > soon ? ready : soon);
        }
        // Fetch: either an icache miss resolves at a known cycle, or
        // the icache would be accessed (a side effect) next cycle.
        if (fetchEnabled_ && !awaitRedirect_ &&
            fetchBuf_.size() + config_.issueWidth <=
                config_.fetchBufferSize) {
            if (pendingFetchReady_ != 0)
                next = std::min(next, pendingFetchReady_ > soon
                                          ? pendingFetchReady_
                                          : soon);
            else
                return soon;
        }
    }
    return next;
}

void
ProcessingUnit::tick(Cycle now)
{
    activity_ = false;
    if (status_ == Status::kFree) {
        return;
    }
    fuAccepts_.fill(0);
    completePhase(now);
    unsigned issued = 0;
    if (status_ == Status::kRunning || status_ == Status::kExited)
        issued = issuePhase(now);
    if (issued > 0)
        activity_ = true;
    dispatchPhase(now);
    fetchPhase(now);
    // Pop instructions completed by this cycle's issue+complete.
    while (!window_.empty() && window_.front().done) {
        window_.pop_front();
        activity_ = true;
    }
    autoReleasePhase();
    maybeFinish();
    accountCycle(now, issued);
    if (tracer_ && tracer_->wants(TraceCat::kPu)) {
        tracer_->counter(TraceCat::kPu, occupancyName_, now, id_,
                         "window", window_.size(), "issued", issued);
    }
}

} // namespace msim
