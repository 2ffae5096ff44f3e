#include "mem/l2_cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace_event.hh"

namespace msim {

L2Cache::L2Cache(StatGroup &stats, MemoryBus &bus,
                 const L2Params &params, Tracer *tracer)
    : stats_(stats), bus_(bus), params_(params), tracer_(tracer)
{
    fatalIf(params.numBanks == 0, "L2 needs at least one bank");
    fatalIf(params.assoc == 0, "L2 needs at least one way");
    fatalIf(params.mshrsPerBank == 0, "L2 needs at least one MSHR");
    fatalIf(params.sizeBytes == 0 || params.blockBytes == 0 ||
                params.sizeBytes % params.numBanks != 0,
            "bad L2 geometry");
    const std::size_t bank_bytes = params.sizeBytes / params.numBanks;
    fatalIf(bank_bytes % (params.blockBytes * params.assoc) != 0,
            "L2 bank capacity must hold a whole number of sets");
    setsPerBank_ = bank_bytes / (params.blockBytes * params.assoc);
    fatalIf((setsPerBank_ & (setsPerBank_ - 1)) != 0 ||
                (params.blockBytes & (params.blockBytes - 1)) != 0,
            "L2 geometry must be a power of two");
    banks_.resize(params.numBanks);
    for (Bank &bank : banks_)
        bank.ways.resize(setsPerBank_ * params.assoc);
}

Cycle
L2Cache::grantBank(Bank &bank, Cycle now)
{
    Cycle grant = now;
    if (bank.busyUntil > grant) {
        bankConflictCycles_.add(bank.busyUntil - grant);
        grant = bank.busyUntil;
    }
    bank.busyUntil = grant + 1;
    return grant;
}

L2Cache::Way *
L2Cache::lookup(Bank &bank, Addr local_block)
{
    const std::size_t set = std::size_t(local_block) & (setsPerBank_ - 1);
    Way *base = &bank.ways[set * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == local_block)
            return &base[w];
    }
    return nullptr;
}

const L2Cache::Way *
L2Cache::lookup(const Bank &bank, Addr local_block) const
{
    return const_cast<L2Cache *>(this)->lookup(
        const_cast<Bank &>(bank), local_block);
}

const L2Cache::Mshr *
L2Cache::findMshr(const Bank &bank, Addr mem_block) const
{
    for (const Mshr &m : bank.mshrs) {
        if (m.memBlock == mem_block)
            return &m;
    }
    return nullptr;
}

Cycle
L2Cache::allocMshr(Bank &bank, Cycle grant)
{
    auto retire = [&bank](Cycle now) {
        bank.mshrs.erase(
            std::remove_if(bank.mshrs.begin(), bank.mshrs.end(),
                           [now](const Mshr &m) {
                               return m.readyAt <= now;
                           }),
            bank.mshrs.end());
    };
    retire(grant);
    if (bank.mshrs.size() >= params_.mshrsPerBank) {
        // All MSHRs are busy: the access stalls at the bank until
        // the earliest in-flight fill completes and frees its entry.
        const auto earliest = std::min_element(
            bank.mshrs.begin(), bank.mshrs.end(),
            [](const Mshr &a, const Mshr &b) {
                return a.readyAt < b.readyAt;
            });
        const Cycle freed = earliest->readyAt;
        mshrStalls_.add();
        mshrStallCycles_.add(freed - grant);
        if (tracer_ && tracer_->wants(TraceCat::kCache)) {
            tracer_->instant(TraceCat::kCache, "l2_mshr_full", grant,
                             kTidL2Base, "wait", freed - grant);
        }
        bank.busyUntil = std::max(bank.busyUntil, freed + 1);
        retire(freed);
        return freed;
    }
    return grant;
}

Cycle
L2Cache::evictFor(Bank &bank, std::size_t set, Cycle start,
                  Way **way_out)
{
    Way *base = &bank.ways[set * params_.assoc];
    Way *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid) {
            *way_out = &base[w];
            return start;
        }
        if (victim == nullptr || base[w].lru < victim->lru)
            victim = &base[w];
    }
    evictions_.add();
    bool dirty = victim->dirty;
    if (params_.inclusion == L2Inclusion::kInclusive &&
        backInvalidate_) {
        // The L1 copies must go when the L2 line goes; a dirty L1
        // copy folds its data into this victim's writeback.
        if (backInvalidate_(victim->memBlock * Addr(params_.blockBytes)))
            dirty = true;
        backInvalidations_.add();
    }
    if (dirty) {
        writebacks_.add();
        start = bus_.request(start,
                             unsigned(params_.blockBytes / 4));
    }
    victim->valid = false;
    *way_out = victim;
    return start;
}

void
L2Cache::install(Way &way, Addr local_block, Addr mem_block, bool dirty)
{
    way.valid = true;
    way.dirty = dirty;
    way.tag = local_block;
    way.memBlock = mem_block;
    way.lru = ++lruClock_;
}

Cycle
L2Cache::fetchBlock(Cycle now, Addr addr, unsigned words)
{
    (void)words;
    const Addr mem_block = addr / Addr(params_.blockBytes);
    const Addr local_block = mem_block / params_.numBanks;
    Bank &bank = banks_[bankOf(mem_block)];
    const Cycle grant = grantBank(bank, now);

    if (Way *way = lookup(bank, local_block)) {
        way->lru = ++lruClock_;
        Cycle ready = grant + params_.hitLatency;
        if (const Mshr *m = findMshr(bank, mem_block);
            m != nullptr && m->readyAt > grant) {
            // Secondary miss: the block is already being filled;
            // ride the outstanding MSHR instead of a new request.
            mshrMerges_.add();
            ready = std::max(ready, m->readyAt + params_.hitLatency);
        } else {
            readHits_.add();
        }
        if (params_.inclusion == L2Inclusion::kExclusive) {
            // The block moves up: hand it to the L1 and drop it
            // here. A dirty copy is flushed to memory in the
            // background (the response is not delayed).
            if (way->dirty) {
                writebacks_.add();
                bus_.request(grant, unsigned(params_.blockBytes / 4));
            }
            way->valid = false;
            exclusiveSupplies_.add();
        }
        return ready;
    }

    if (const Mshr *m = findMshr(bank, mem_block);
        m != nullptr && m->readyAt > grant) {
        // Secondary miss without a resident line (exclusive never
        // allocates on fill; other policies can evict a line whose
        // fill is still in flight): merge with the outstanding MSHR.
        mshrMerges_.add();
        return std::max(grant, m->readyAt) + params_.hitLatency;
    }

    readMisses_.add();
    if (tracer_ && tracer_->wants(TraceCat::kCache)) {
        tracer_->instant(TraceCat::kCache, "l2_read_miss", now,
                         kTidL2Base, "addr", addr);
    }
    Cycle start = allocMshr(bank, grant);
    if (params_.inclusion != L2Inclusion::kExclusive) {
        const std::size_t set =
            std::size_t(local_block) & (setsPerBank_ - 1);
        Way *way = nullptr;
        start = evictFor(bank, set, start, &way);
        const Cycle done =
            bus_.request(start, unsigned(params_.blockBytes / 4));
        install(*way, local_block, mem_block, /*dirty=*/false);
        bank.mshrs.push_back(Mshr{mem_block, done});
        return done + params_.hitLatency;
    }
    // Exclusive: the fill goes straight up without allocating.
    const Cycle done =
        bus_.request(start, unsigned(params_.blockBytes / 4));
    bank.mshrs.push_back(Mshr{mem_block, done});
    return done + params_.hitLatency;
}

Cycle
L2Cache::writebackBlock(Cycle now, Addr addr, unsigned words)
{
    (void)words;
    const Addr mem_block = addr / Addr(params_.blockBytes);
    const Addr local_block = mem_block / params_.numBanks;
    Bank &bank = banks_[bankOf(mem_block)];
    const Cycle grant = grantBank(bank, now);

    if (Way *way = lookup(bank, local_block)) {
        writeHits_.add();
        way->dirty = true;
        way->lru = ++lruClock_;
        return grant + params_.hitLatency;
    }

    // An L1 victim carries the whole block, so a writeback miss
    // allocates without fetching from memory (no MSHR needed).
    writeMisses_.add();
    const std::size_t set = std::size_t(local_block) & (setsPerBank_ - 1);
    Way *way = nullptr;
    const Cycle start = evictFor(bank, set, grant, &way);
    install(*way, local_block, mem_block, /*dirty=*/true);
    return start + params_.hitLatency;
}

void
L2Cache::cleanEviction(Cycle now, Addr addr, unsigned words)
{
    (void)words;
    if (params_.inclusion != L2Inclusion::kExclusive)
        return;
    // Victim caching: a clean L1 victim is allocated on the way out
    // so the next miss to it hits the L2 instead of memory.
    const Addr mem_block = addr / Addr(params_.blockBytes);
    const Addr local_block = mem_block / params_.numBanks;
    Bank &bank = banks_[bankOf(mem_block)];
    const Cycle grant = grantBank(bank, now);
    if (Way *way = lookup(bank, local_block)) {
        way->lru = ++lruClock_;
        return;
    }
    victimAllocations_.add();
    const std::size_t set = std::size_t(local_block) & (setsPerBank_ - 1);
    Way *way = nullptr;
    (void)evictFor(bank, set, grant, &way);
    install(*way, local_block, mem_block, /*dirty=*/false);
}

Cycle
L2Cache::nextEventCycle(Cycle now) const
{
    Cycle next = kCycleNever;
    for (const Bank &bank : banks_) {
        for (const Mshr &m : bank.mshrs) {
            if (m.readyAt > now && m.readyAt < next)
                next = m.readyAt;
        }
    }
    return next;
}

bool
L2Cache::probe(Addr addr) const
{
    const Addr mem_block = addr / Addr(params_.blockBytes);
    const Bank &bank = banks_[bankOf(mem_block)];
    return lookup(bank, mem_block / params_.numBanks) != nullptr;
}

bool
L2Cache::probeDirty(Addr addr) const
{
    const Addr mem_block = addr / Addr(params_.blockBytes);
    const Bank &bank = banks_[bankOf(mem_block)];
    const Way *way = lookup(bank, mem_block / params_.numBanks);
    return way != nullptr && way->dirty;
}

std::size_t
L2Cache::validLines() const
{
    std::size_t n = 0;
    for (const Bank &bank : banks_) {
        for (const Way &way : bank.ways)
            n += way.valid ? 1 : 0;
    }
    return n;
}

} // namespace msim
