#include "core/multiscalar_processor.hh"

#include <algorithm>

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "isa/registers.hh"

namespace msim {

MultiscalarProcessor::MultiscalarProcessor(const Program &program,
                                           const MsConfig &config)
    : program_(program), config_(config), acct_(config.numUnits)
{
    config.validate();
    mem_.loadProgram(program);
    if (config.trace.enabled) {
        tracer_ = std::make_unique<Tracer>(config.trace);
        tracer_->threadName(kTidSequencer, "sequencer");
        tracer_->threadName(kTidBus, "bus");
        tracer_->threadName(kTidRing, "ring");
        tracer_->threadName(kTidArb, "arb");
        for (unsigned u = 0; u < config.numUnits; ++u) {
            tracer_->threadName(u, "pu" + std::to_string(u));
            tracer_->threadName(kTidIcacheBase + u,
                                "icache" + std::to_string(u));
        }
        for (unsigned b = 0; b < config.effectiveBanks(); ++b) {
            tracer_->threadName(kTidDcacheBase + b,
                                "dcache" + std::to_string(b));
        }
        if (config.l2)
            tracer_->threadName(kTidL2Base, "l2");
    }
    Tracer *tracer = tracer_.get();
    bus_ = std::make_unique<MemoryBus>(stats_.group("bus"), config.bus,
                                       tracer);
    MemLevel *l1next;
    if (config.l2) {
        l2_ = std::make_unique<L2Cache>(stats_.group("l2"), *bus_,
                                        *config.l2, tracer);
        l1next = l2_.get();
    } else {
        busLevel_ = std::make_unique<BusMemLevel>(*bus_);
        l1next = busLevel_.get();
    }
    for (unsigned u = 0; u < config.numUnits; ++u) {
        icaches_.push_back(std::make_unique<Cache>(
            stats_.group("icache" + std::to_string(u)), *l1next,
            config.icache, tracer, kTidIcacheBase + u));
    }
    dcache_ = std::make_unique<BankedDataCache>(
        stats_, *l1next,
        BankedDataCache::Params{config.effectiveBanks(),
                                config.bankSizeBytes, config.blockBytes,
                                config.dcacheHitLatency},
        tracer);
    if (l2_) {
        // Inclusive-policy back-invalidation: an evicted L2 block
        // must leave every L1 above (icache fetches use the global
        // pc as their local address; the banked dcache translates).
        l2_->setBackInvalidate([this](Addr addr) {
            bool dirty = dcache_->invalidateBlock(addr);
            for (auto &icache : icaches_)
                dirty = icache->invalidateBlock(addr) || dirty;
            return dirty;
        });
    }
    arb_ = std::make_unique<Arb>(
        stats_.group("arb"), mem_,
        Arb::Params{config.effectiveBanks(), config.blockBytes,
                    config.arbEntriesPerBank},
        tracer);
    ring_ = std::make_unique<ForwardRing>(stats_.group("ring"),
                                          config.numUnits,
                                          config.pu.issueWidth,
                                          config.ringHopLatency,
                                          tracer);
    predictor_ = makeTaskPredictor(config.predictor);
    ras_ = std::make_unique<ReturnStack>(config.rasEntries);
    descCache_ = std::make_unique<DescriptorCache>(
        stats_.group("desccache"), *bus_, config.descCacheEntries);
    syscalls_ = std::make_unique<SyscallHandler>(
        [this](Addr a) {
            // Head-visible memory: committed state plus the head
            // task's own buffered stores.
            if (numActive_ > 0) {
                return std::uint8_t(arb_->load(seqOf(unitAt(0)), a, 1,
                                               /*is_head=*/true));
            }
            return std::uint8_t(mem_.read(a, 1));
        },
        program.heapStart);
    for (unsigned u = 0; u < config.numUnits; ++u) {
        units_.push_back(std::make_unique<ProcessingUnit>(
            u, config.pu, *this, stats_.group("pu" + std::to_string(u)),
            &acct_, tracer));
    }
    taskInfo_.resize(config.numUnits);
    // Tracing wants a sample of every cycle, so skipping is reserved
    // for untraced runs (where the hot loop must stay lean anyway).
    fastForward_ = config.fastForward && !tracer_ &&
                   !std::getenv("MSIM_NO_FASTFORWARD");
    if (config.writeSetOracle || config.memDepOracle)
        oracle_ = std::make_unique<analysis::AnnotationVerifier>(program);
    if (config.memDepOracle) {
        memDep_ =
            std::make_unique<analysis::MemDepAnalysis>(program, *oracle_);
    }
}

void
MultiscalarProcessor::setInput(std::deque<std::int32_t> input)
{
    syscalls_->setInput(std::move(input));
}

unsigned
MultiscalarProcessor::unitAt(unsigned position) const
{
    return (head_ + position) % config_.numUnits;
}

unsigned
MultiscalarProcessor::positionOf(unsigned unit) const
{
    return (unit + config_.numUnits - head_) % config_.numUnits;
}

bool
MultiscalarProcessor::unitIsHead(unsigned unit) const
{
    return numActive_ > 0 && unit == head_;
}

TaskSeq
MultiscalarProcessor::seqOf(unsigned unit) const
{
    return taskInfo_[unit].seq;
}

// --------------------------------------------------------------------
// PuContext implementation
// --------------------------------------------------------------------

const isa::Instruction *
MultiscalarProcessor::instrAt(Addr pc)
{
    return program_.instrAt(pc);
}

Cycle
MultiscalarProcessor::icacheAccess(unsigned unit, Cycle now, Addr pc)
{
    return icaches_[unit]->access(now, pc, false);
}

Cycle
MultiscalarProcessor::dcacheAccess(unsigned unit, Cycle now, Addr addr,
                                   bool write)
{
    (void)unit;
    return dcache_->access(now, addr, write);
}

bool
MultiscalarProcessor::memHasSpace(unsigned unit, Addr addr, unsigned size,
                                  bool is_load)
{
    const bool ok = arb_->hasSpaceFor(seqOf(unit), addr, size, is_load,
                                      unitIsHead(unit));
    if (!ok) {
        arbFullStalls_.add();
        if (tracer_ && tracer_->wants(TraceCat::kArb)) {
            tracer_->instant(TraceCat::kArb, "arb_full", tracer_->now(),
                             kTidArb, "unit", unit, "addr", addr);
        }
        if (config_.arbFullPolicy == ArbFullPolicy::kSquash)
            arbFullEvent_ = true;
    }
    return ok;
}

std::uint64_t
MultiscalarProcessor::memLoad(unsigned unit, Addr addr, unsigned size)
{
    return arb_->load(seqOf(unit), addr, size, unitIsHead(unit));
}

void
MultiscalarProcessor::memStore(unsigned unit, Addr addr, unsigned size,
                               std::uint64_t value)
{
    auto violator = arb_->store(seqOf(unit), addr, size, value,
                                unitIsHead(unit));
    if (violator) {
        if (memDep_) {
            // The earliest violated task must be active: find its
            // unit to learn which static task it is running.
            const Addr storeTask = taskInfo_[unit].start;
            Addr loadTask = 0;
            for (unsigned p = 0; p < numActive_; ++p) {
                if (seqOf(unitAt(p)) == *violator) {
                    loadTask = taskInfo_[unitAt(p)].start;
                    break;
                }
            }
            panicIf(loadTask == 0,
                    "mem-dep oracle: violated seq ", *violator,
                    " is not an active task");
            if (!memDep_->violationPredicted(storeTask, loadTask, addr,
                                             size)) {
                char what[128];
                std::snprintf(what, sizeof(what),
                              "store task 0x%x -> load task 0x%x at "
                              "addr 0x%x size %u",
                              storeTask, loadTask, addr, size);
                panic("mem-dep oracle: ARB violation (", what,
                      ") outside the static may-conflict prediction");
            }
        }
        if (!pendingViolation_ || *violator < *pendingViolation_)
            pendingViolation_ = *violator;
    }
}

void
MultiscalarProcessor::forwardReg(unsigned unit, RegIndex reg,
                                 isa::RegValue value)
{
    RingMessage msg;
    msg.reg = reg;
    msg.value = value;
    msg.producer = seqOf(unit);
    ring_->send(unit, msg);
    // Update the sequencer's walk ledger: the value the walk was
    // waiting on from this producer is now known.
    WalkReg &wr = walkRegs_[size_t(reg)];
    if (wr.pending && wr.producer == msg.producer) {
        wr.value = value;
        wr.pending = false;
    }
}

bool
MultiscalarProcessor::syscallAllowed(unsigned unit)
{
    return unitIsHead(unit);
}

isa::RegValue
MultiscalarProcessor::doSyscall(unsigned, isa::RegValue v0,
                                isa::RegValue a0, isa::RegValue a1)
{
    return syscalls_->execute(v0, a0, a1);
}

void
MultiscalarProcessor::taskExited(unsigned unit, Addr next_task)
{
    exitEvents_.push_back({unit, seqOf(unit), next_task});
}

// --------------------------------------------------------------------
// Sequencer
// --------------------------------------------------------------------

Addr
MultiscalarProcessor::resolveTarget(const TaskTarget &target)
{
    switch (target.spec) {
      case TargetSpec::kReturn:
        return ras_->pop();
      case TargetSpec::kCall:
        ras_->push(target.returnTo);
        return target.addr;
      default:
        return target.addr;
    }
}

unsigned
MultiscalarProcessor::actualTargetIndex(const ActiveTask &task,
                                        Addr actual) const
{
    int return_index = -1;
    for (unsigned i = 0; i < task.desc->targets.size(); ++i) {
        const TaskTarget &t = task.desc->targets[i];
        if (t.spec == TargetSpec::kReturn) {
            return_index = int(i);
            continue;
        }
        if (t.addr == actual)
            return i;
    }
    if (return_index >= 0)
        return unsigned(return_index);
    panic("task at 0x", std::hex, task.start,
          " exited to undeclared successor 0x", actual, std::dec,
          " (missing .targets entry?)");
}

void
MultiscalarProcessor::squashFrom(TaskSeq from, Counter &reason)
{
    while (numActive_ > 0) {
        const unsigned tail_unit = unitAt(numActive_ - 1);
        if (taskInfo_[tail_unit].seq < from)
            break;
        TaskStats ts = pu(tail_unit).flush();
        result_.squashedInstructions += ts.instructions;
        result_.squashedCycles += ts.cycles;
        result_.tasksSquashed += 1;
        acct_.squashTask(tail_unit);
        if (tracer_ && tracer_->wants(TraceCat::kTask)) {
            tracer_->instant(TraceCat::kTask, reason.name(),
                             tracer_->now(), tail_unit, "seq",
                             taskInfo_[tail_unit].seq);
            tracer_->end(TraceCat::kTask, tracer_->now(), tail_unit);
        }
        arb_->squash(taskInfo_[tail_unit].seq);
        taskInfo_[tail_unit] = ActiveTask{};
        --numActive_;
    }
    reason.add();
    rebuildWalkRegs();
    // The sequencer loses a step: any descriptor prefetch in progress
    // is abandoned.
    descFetchAddr_ = kBadAddr;
}

void
MultiscalarProcessor::rebuildWalkRegs()
{
    for (int r = 0; r < kNumRegs; ++r)
        walkRegs_[size_t(r)] = {archRegs_[size_t(r)], false, 0};
    for (unsigned p = 0; p < numActive_; ++p) {
        const unsigned unit = unitAt(p);
        const RegMask &create = pu(unit).createMask();
        const RegMask &fwd = pu(unit).forwardedMask();
        for (int r = 1; r < kNumRegs; ++r) {
            if (!create.test(r))
                continue;
            if (fwd.test(r)) {
                walkRegs_[size_t(r)] = {
                    pu(unit).forwardedValue(RegIndex(r)), false, 0};
            } else {
                walkRegs_[size_t(r)] = {isa::RegValue{}, true,
                                        taskInfo_[unit].seq};
            }
        }
    }
}

void
MultiscalarProcessor::validateExit(const ExitEvent &event)
{
    const unsigned unit = event.unit;
    // The task may have been squashed since the event fired.
    if (positionOf(unit) >= numActive_)
        return;
    ActiveTask &task = taskInfo_[unit];
    if (task.seq != event.seq || !pu(unit).hasExited())
        return;

    if (std::getenv("MSIM_TRACE")) {
        std::fprintf(stderr, "exit seq=%llu unit=%u actual=0x%x pred=0x%x\n",
                     (unsigned long long)task.seq, unit, event.actual,
                     task.predictedNext);
    }
    const unsigned actual_idx = actualTargetIndex(task, event.actual);
    predictor_->update(task.start, *task.desc, actual_idx);
    if (task.counted) {
        result_.taskPredictions += 1;
        if (event.actual == task.predictedNext)
            result_.taskPredHits += 1;
    }
    if (event.actual == task.predictedNext)
        return;

    // Control misprediction: squash every later task and restart the
    // walk from the actual successor.
    result_.controlSquashes += 1;
    squashFrom(task.seq + 1, squashControl_);
    ras_->restore(task.rasCp);
    const TaskTarget &t = task.desc->targets[actual_idx];
    if (t.spec == TargetSpec::kCall)
        ras_->push(t.returnTo);
    else if (t.spec == TargetSpec::kReturn)
        ras_->pop();  // consume the (stale) predicted entry
    nextTaskAddr_ = event.actual;
}

void
MultiscalarProcessor::deferredPhase(Cycle)
{
    // 1. Memory dependence violations (earliest wins).
    if (pendingViolation_) {
        const TaskSeq v = *pendingViolation_;
        pendingViolation_.reset();
        // Find the violated task; it restarts at its own address.
        for (unsigned p = 0; p < numActive_; ++p) {
            const unsigned unit = unitAt(p);
            if (taskInfo_[unit].seq >= v) {
                const Addr restart = taskInfo_[unit].start;
                const auto ras_cp = taskInfo_[unit].rasCp;
                result_.memorySquashes += 1;
                squashFrom(taskInfo_[unit].seq, squashMemory_);
                ras_->restore(ras_cp);
                nextTaskAddr_ = restart;
                break;
            }
        }
    }

    // 2. Task exits in task order.
    std::sort(exitEvents_.begin(), exitEvents_.end(),
              [](const ExitEvent &a, const ExitEvent &b) {
                  return a.seq < b.seq;
              });
    for (const ExitEvent &event : exitEvents_)
        validateExit(event);
    exitEvents_.clear();

    // 3. ARB capacity policy.
    if (arbFullEvent_) {
        arbFullEvent_ = false;
        if (config_.arbFullPolicy == ArbFullPolicy::kSquash &&
            numActive_ > 1) {
            const unsigned tail_unit = unitAt(numActive_ - 1);
            const Addr restart = taskInfo_[tail_unit].start;
            const auto ras_cp = taskInfo_[tail_unit].rasCp;
            result_.arbFullSquashes += 1;
            squashFrom(taskInfo_[tail_unit].seq, squashArbFull_);
            ras_->restore(ras_cp);
            nextTaskAddr_ = restart;
        }
    }
}

void
MultiscalarProcessor::retirePhase(Cycle now)
{
    if (numActive_ == 0)
        return;
    const unsigned head_unit = unitAt(0);
    if (!pu(head_unit).isDone())
        return;
    acct_.commitTask(head_unit);
    if (tracer_ && tracer_->wants(TraceCat::kTask)) {
        tracer_->instant(TraceCat::kTask, "retire", now, head_unit,
                         "seq", taskInfo_[head_unit].seq);
        tracer_->end(TraceCat::kTask, now, head_unit);
    }
    arb_->commit(taskInfo_[head_unit].seq);
    // Architectural register state advances by the values this task
    // forwarded (a done task has forwarded its whole create mask).
    for (int r = 1; r < kNumRegs; ++r) {
        if (pu(head_unit).createMask().test(r))
            archRegs_[size_t(r)] =
                pu(head_unit).forwardedValue(RegIndex(r));
    }
    TaskStats ts = pu(head_unit).retire();
    result_.instructions += ts.instructions;
    result_.usefulCycles += ts.cycles;
    result_.tasksRetired += 1;
    taskInfo_[head_unit] = ActiveTask{};
    head_ = (head_ + 1) % config_.numUnits;
    --numActive_;
}

void
MultiscalarProcessor::assignPhase(Cycle now)
{
    if (!nextTaskAddr_ || numActive_ >= config_.numUnits)
        return;
    const Addr addr = *nextTaskAddr_;

    // Task descriptor availability (descriptor cache timing).
    if (descFetchAddr_ != addr) {
        descFetchAddr_ = addr;
        descReadyAt_ = descCache_->access(now, addr);
    }
    if (now < descReadyAt_)
        return;

    const TaskDescriptor *desc = program_.taskAt(addr);
    fatalIf(!desc, "no task descriptor at 0x",
            std::hex, addr, std::dec,
            " — the multiscalar walk needs one at every task entry");

    const unsigned unit = unitAt(numActive_);
    panicIf(!pu(unit).isFree(), "tail unit is not free");

    // Initial register state from the sequencer's walk ledger:
    // registers whose producing task has already forwarded them are
    // available immediately; the rest become reservations on their
    // specific producer, satisfied by physical ring messages.
    RegMask busy;
    std::array<TaskSeq, kNumRegs> producers{};
    std::array<isa::RegValue, kNumRegs> init{};
    for (int r = 0; r < kNumRegs; ++r) {
        const WalkReg &wr = walkRegs_[size_t(r)];
        init[size_t(r)] = wr.value;
        if (r != 0 && wr.pending) {
            busy.set(r);
            producers[size_t(r)] = wr.producer;
        }
    }

    // Predict this task's successor and continue the walk there.
    ActiveTask info;
    info.seq = nextSeq_++;
    info.start = addr;
    info.desc = desc;
    info.rasCp = ras_->checkpoint();
    if (desc->targets.empty()) {
        // Terminal task: the walk stops here.
        info.predictedNext = 0;
        info.counted = false;
        nextTaskAddr_.reset();
    } else {
        unsigned idx = 0;
        if (desc->targets.size() > 1)
            idx = predictor_->predict(addr, *desc);
        panicIf(idx >= desc->targets.size(), "predictor returned a bad "
                "target index");
        info.predictedNext = resolveTarget(desc->targets[idx]);
        info.counted = desc->targets.size() > 1;
        if (info.predictedNext == 0) {
            // An empty return stack leaves the walk with no target;
            // stop until the task exits and corrects us.
            nextTaskAddr_.reset();
        } else {
            nextTaskAddr_ = info.predictedNext;
        }
    }

    if (std::getenv("MSIM_TRACE")) {
        std::fprintf(stderr,
                     "[%llu] assign seq=%llu unit=%u addr=0x%x "
                     "pred=0x%x r20=0x%x r21=0x%x busy20=%d\n",
                     (unsigned long long)now,
                     (unsigned long long)info.seq, unit, addr,
                     info.predictedNext, init[20].asWord(),
                     init[21].asWord(), int(busy.test(20)));
    }
    pu(unit).assignTask(info.seq, addr, desc->createMask, busy,
                        init.data(), producers.data());
    if (oracle_ && config_.writeSetOracle) {
        const analysis::TaskFacts *facts = oracle_->facts(addr);
        if (facts && !facts->incomplete)
            pu(unit).setWriteOracle(facts->mayWrite, facts->mayForward);
    }
    taskInfo_[unit] = info;
    ++numActive_;
    descFetchAddr_ = kBadAddr;
    assignments_.add();
    if (tracer_ && tracer_->wants(TraceCat::kTask)) {
        char name[32];
        std::snprintf(name, sizeof(name), "task@0x%x", unsigned(addr));
        tracer_->begin(TraceCat::kTask, name, now, unit, "seq",
                       info.seq, "pred", info.predictedNext);
    }
    if (tracer_ && tracer_->wants(TraceCat::kSeq)) {
        tracer_->instant(TraceCat::kSeq, "assign", now, kTidSequencer,
                         "unit", unit, "seq", info.seq);
    }

    // The walk moves past this task: everything it may create is now
    // pending on it.
    for (int r = 1; r < kNumRegs; ++r) {
        if (desc->createMask.test(r))
            walkRegs_[size_t(r)] = {isa::RegValue{}, true, info.seq};
    }
}

void
MultiscalarProcessor::ringPhase(Cycle)
{
    ring_->tick([this](unsigned unit, const RingMessage &msg) {
        ProcessingUnit &u = pu(unit);
        u.deliverForward(msg.reg, msg.value, msg.producer);
        // Values travel the whole ring (numUnits-1 hops). Stopping
        // early at a unit whose create mask holds the register looks
        // attractive, but once the task window wraps the ring, a
        // reassigned unit may carry a *newer* task than a consumer
        // further along the ring, and the early kill starves that
        // consumer. Delivery is already producer-guarded, so extra
        // hops are harmless.
        return true;
    });
}

void
MultiscalarProcessor::unitsPhase(Cycle now)
{
    for (unsigned p = 0; p < config_.numUnits; ++p)
        pu(unitAt(p)).tick(now);
}

Cycle
MultiscalarProcessor::nextEventCycle(Cycle now) const
{
    const Cycle soon = now + 1;
    // Cheap pre-filter: a unit whose last tick changed state may act
    // again immediately — don't bother scanning windows.
    for (unsigned u = 0; u < config_.numUnits; ++u) {
        if (!pu(u).quiescentLastTick())
            return soon;
    }
    // Ring traffic is delivered (and re-launched) every tick; any
    // queued or in-flight message means progress next cycle.
    if (!ring_->idle())
        return soon;
    // A done head task retires next cycle.
    if (numActive_ > 0 && pu(unitAt(0)).isDone())
        return soon;
    Cycle next = kCycleNever;
    // The sequencer: a descriptor fetch in flight has a known ready
    // cycle; otherwise an unblocked walk acts (starts a descriptor
    // access or assigns) next cycle.
    if (nextTaskAddr_ && numActive_ < config_.numUnits) {
        if (descFetchAddr_ == *nextTaskAddr_ && now < descReadyAt_)
            next = descReadyAt_;
        else
            return soon;
    }
    for (unsigned u = 0; u < config_.numUnits; ++u) {
        const Cycle e = pu(u).nextEventCycle(now);
        if (e <= soon)
            return soon;
        if (e < next)
            next = e;
    }
    // The shared L2's in-flight MSHR fills bound the jump too: the
    // L2 never acts on its own (it is a call-time model), so this
    // only shortens skips, keeping FF-on timing identical while the
    // quiescence claim stays honest about outstanding misses.
    if (l2_) {
        const Cycle e = l2_->nextEventCycle(now);
        if (e <= soon)
            return soon;
        if (e < next)
            next = e;
    }
    return next;
}

void
MultiscalarProcessor::accountSkip(std::uint64_t n)
{
    for (unsigned u = 0; u < config_.numUnits; ++u)
        pu(u).accountSkippedCycles(n);
    result_.idleCycles += (config_.numUnits - numActive_) * n;
    result_.fastForwardedCycles += n;
    ffJumps_.add();
    ffSkippedCycles_.add(n);
}

RunResult
MultiscalarProcessor::run(Cycle max_cycles)
{
    panicIf(started_, "MultiscalarProcessor::run may only be called once");
    started_ = true;

    fatalIf(!program_.taskAt(program_.entry),
            "multiscalar program needs a task descriptor at the entry "
            "point");
    archRegs_ = {};
    archRegs_[size_t(isa::kRegSp)] = isa::RegValue::fromWord(kStackTop);
    rebuildWalkRegs();
    nextTaskAddr_ = program_.entry;

    Cycle now = 0;
    Cycle cycles_done = 0;
    std::uint64_t last_progress = 0;
    Cycle last_progress_cycle = 0;
    for (; now < max_cycles; ++now) {
        if (tracer_)
            tracer_->setNow(now);
        acct_.beginCycle();
        ringPhase(now);
        unitsPhase(now);
        if (syscalls_->exited()) {
            acct_.endCycle();
            ++cycles_done;
            break;
        }
        deferredPhase(now);
        retirePhase(now);
        assignPhase(now);
        acct_.endCycle();
        ++cycles_done;
        result_.idleCycles += config_.numUnits - numActive_;

        const std::uint64_t progress =
            result_.instructions + result_.tasksRetired +
            result_.squashedInstructions;
        std::uint64_t live = 0;
        for (unsigned u = 0; u < config_.numUnits; ++u)
            live += units_[u]->currentTaskStats().instructions;
        if (progress + live != last_progress) {
            last_progress = progress + live;
            last_progress_cycle = now;
        }
        if (now - last_progress_cycle > 100000) {
            std::ostringstream os;
            os << "multiscalar processor made no progress for 100000 "
                  "cycles (deadlock?). State:";
            for (unsigned p = 0; p < numActive_; ++p) {
                const unsigned unit = unitAt(p);
                os << "\n  unit " << unit << " seq "
                   << taskInfo_[unit].seq << " task@0x" << std::hex
                   << taskInfo_[unit].start << std::dec << " status "
                   << int(pu(unit).status()) << " awaiting {"
                   << (pu(unit).createMask() -
                       pu(unit).forwardedMask()).toString()
                   << "}";
            }
            panic(os.str());
        }

        // Cycle-exact fast-forward: when every component is
        // quiescent until some future cycle, the skipped cycles are
        // provably pure stalls — bulk-account them and jump. A
        // kCycleNever result (nothing scheduled at all) falls back
        // to stepping so the deadlock watchdog above still fires.
        if (fastForward_) {
            const Cycle next = nextEventCycle(now);
            if (next > now + 1 && next != kCycleNever) {
                const Cycle target = next < max_cycles ? next
                                                       : max_cycles;
                if (target > now + 1) {
                    const std::uint64_t n = target - now - 1;
                    accountSkip(n);
                    cycles_done += n;
                    now += n;
                }
            }
        }
    }

    // Fold the remaining active tasks: the head is architecturally
    // committed work; later tasks are speculative and do not count.
    for (unsigned p = 0; p < numActive_; ++p) {
        const unsigned unit = unitAt(p);
        const TaskStats &ts = pu(unit).currentTaskStats();
        if (p == 0) {
            result_.instructions += ts.instructions;
            result_.usefulCycles += ts.cycles;
            result_.tasksRetired += 1;
            acct_.commitTask(unit);
        } else {
            result_.squashedInstructions += ts.instructions;
            result_.squashedCycles += ts.cycles;
            result_.tasksSquashed += 1;
            acct_.squashTask(unit);
        }
    }

    result_.cycles = cycles_done;
    result_.exited = syscalls_->exited();
    result_.hitMaxCycles = !result_.exited;
    result_.output = syscalls_->output();
    result_.accounting = acct_.finish(cycles_done);
    acct_.exportStats(stats_.group("cycles"));
    if (tracer_) {
        tracer_->flush();
        traceEvents_.add(tracer_->recorded());
        traceDropped_.add(tracer_->dropped());
    }
    return result_;
}

} // namespace msim
