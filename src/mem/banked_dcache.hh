/**
 * @file
 * The banked data cache behind the crossbar (paper Figure 1).
 *
 * A multiscalar processor with N units has 2N interleaved data banks,
 * each an 8 KB direct-mapped cache with 64-byte blocks. A crossbar
 * connects units to banks; each bank accepts one new access per cycle
 * and conflicting accesses queue (oldest first). Hits take 2 cycles
 * in multiscalar configurations and 1 cycle in the scalar baseline.
 * Misses go to the next memory level — the shared bus, or the shared
 * L2 when one is configured.
 */

#ifndef MSIM_MEM_BANKED_DCACHE_HH
#define MSIM_MEM_BANKED_DCACHE_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "mem/cache.hh"

namespace msim {

/** Crossbar-connected, interleaved data cache banks. */
class BankedDataCache
{
  public:
    struct Params
    {
        unsigned numBanks = 8;
        size_t bankSizeBytes = 8 * 1024;
        size_t blockBytes = 64;
        unsigned hitLatency = 2;
    };

    BankedDataCache(StatRegistry &stats, MemLevel &next,
                    const Params &params, Tracer *tracer = nullptr)
        : params_(params), tracer_(tracer),
          banks_(makeBanks(stats, next)),
          bankBusyUntil_(params.numBanks, 0),
          xbarStats_(stats.group("crossbar"))
    {
    }

    /** Convenience: banks wired straight to the memory bus. */
    BankedDataCache(StatRegistry &stats, MemoryBus &bus,
                    const Params &params, Tracer *tracer = nullptr)
        : ownedNext_(std::make_unique<BusMemLevel>(bus)),
          params_(params), tracer_(tracer),
          banks_(makeBanks(stats, *ownedNext_)),
          bankBusyUntil_(params.numBanks, 0),
          xbarStats_(stats.group("crossbar"))
    {
    }

    /** @return the bank index an address maps to (block interleave). */
    unsigned
    bankOf(Addr addr) const
    {
        return unsigned(addr / Addr(params_.blockBytes)) %
               params_.numBanks;
    }

    /**
     * Access the data cache through the crossbar.
     *
     * @param now Cycle the access is presented to the crossbar.
     * @param addr Byte address.
     * @param write True for stores.
     * @return the cycle the access completes.
     */
    Cycle
    access(Cycle now, Addr addr, bool write)
    {
        const unsigned bank = bankOf(addr);
        Cycle grant = now;
        if (bankBusyUntil_[bank] > grant) {
            grant = bankBusyUntil_[bank];
            conflictCycles_.add(grant - now);
            if (tracer_ && tracer_->wants(TraceCat::kCache)) {
                tracer_->instant(TraceCat::kCache, "bank_conflict", now,
                                 kTidDcacheBase + bank, "wait",
                                 grant - now);
            }
        }
        // Banks are pipelined: they accept one access per cycle.
        bankBusyUntil_[bank] = grant + 1;
        accesses_.add();
        return banks_[bank]->access(grant, bankLocalAddr(addr), write,
                                    addr);
    }

    /**
     * Translate a global address into the bank's local address space:
     * with block interleaving, consecutive blocks of one bank are
     * numBanks blocks apart globally, so the bank indexes (and tags)
     * its own block sequence, using its full capacity.
     */
    Addr
    bankLocalAddr(Addr addr) const
    {
        const Addr block = addr / Addr(params_.blockBytes);
        const Addr offset = addr % Addr(params_.blockBytes);
        return (block / params_.numBanks) * Addr(params_.blockBytes) +
               offset;
    }

    /**
     * Drop the block at global address @p addr from its bank, if
     * present (L2 back-invalidation). @return true when dirty.
     */
    bool
    invalidateBlock(Addr addr)
    {
        return banks_[bankOf(addr)]->invalidateBlock(
            bankLocalAddr(addr));
    }

    /** Reset crossbar arbitration state (not tags or statistics). */
    void
    resetTiming()
    {
        std::fill(bankBusyUntil_.begin(), bankBusyUntil_.end(), 0);
    }

    unsigned numBanks() const { return params_.numBanks; }
    unsigned hitLatency() const { return params_.hitLatency; }

  private:
    /** Build the banks, registering their groups before "crossbar". */
    std::vector<std::unique_ptr<Cache>>
    makeBanks(StatRegistry &stats, MemLevel &next) const
    {
        fatalIf(params_.numBanks == 0, "need at least one data bank");
        std::vector<std::unique_ptr<Cache>> banks;
        for (unsigned b = 0; b < params_.numBanks; ++b) {
            auto &group = stats.group("dcache" + std::to_string(b));
            banks.push_back(std::make_unique<Cache>(
                group, next,
                Cache::Params{params_.bankSizeBytes,
                              params_.blockBytes,
                              params_.hitLatency},
                tracer_, kTidDcacheBase + b));
        }
        return banks;
    }

    /** Only set by the MemoryBus convenience constructor. */
    std::unique_ptr<MemLevel> ownedNext_;
    Params params_;
    Tracer *tracer_ = nullptr;
    std::vector<std::unique_ptr<Cache>> banks_;
    std::vector<Cycle> bankBusyUntil_;
    StatGroup &xbarStats_;
    Counter conflictCycles_{xbarStats_, "conflictCycles"};
    Counter accesses_{xbarStats_, "accesses"};
};

} // namespace msim

#endif // MSIM_MEM_BANKED_DCACHE_HH
