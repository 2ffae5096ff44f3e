/**
 * @file
 * The shared, unified L2 cache between the L1s and the memory bus.
 *
 * Like every cache in the simulator this is a call-time timing model:
 * it holds tags, not data, and an access returns the cycle the block
 * is available. The L2 is banked (block-interleaved, one new access
 * per bank per cycle), set-associative with true LRU, write-back with
 * dirty eviction, and non-blocking: each bank owns a small file of
 * MSHRs tracking in-flight fills. A primary miss allocates an MSHR
 * and fetches the block over the bus; a secondary miss to a block
 * already in flight merges with the outstanding MSHR and waits for
 * the same fill; when a bank's MSHRs are all busy the access stalls
 * until the earliest fill retires its MSHR.
 *
 * Three inclusion policies are modeled (paper-era hierarchies used
 * all three; see DESIGN.md):
 *   - inclusive: every L1 line is also an L2 line. L2 fills allocate;
 *     evicting an L2 line back-invalidates the L1 copies (a dirty L1
 *     copy folds into the victim writeback).
 *   - exclusive: a block lives in the L1s or the L2, never both. An
 *     L2 read hit hands the block up and invalidates it; fills on L2
 *     misses bypass allocation; L1 victims (clean or dirty) are
 *     allocated on the way down (victim caching).
 *   - nine (non-inclusive non-exclusive): fills allocate, evictions
 *     do not touch the L1s; no invariant is maintained.
 */

#ifndef MSIM_MEM_L2_CACHE_HH
#define MSIM_MEM_L2_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/bus.hh"
#include "mem/mem_level.hh"
#include "trace/tracer.hh"

namespace msim {

/** How the L2 relates to the L1 contents above it. */
enum class L2Inclusion
{
    kInclusive,
    kExclusive,
    kNine,
};

/** Geometry and policy of the shared L2 (msim-shape-v1 "l2" block). */
struct L2Params
{
    std::size_t sizeBytes = 256 * 1024;
    unsigned assoc = 8;
    std::size_t blockBytes = 64;
    unsigned hitLatency = 6;
    unsigned numBanks = 4;
    unsigned mshrsPerBank = 8;
    L2Inclusion inclusion = L2Inclusion::kNine;
};

/** The shared L2 timing model (sits behind the MemLevel seam). */
class L2Cache : public MemLevel
{
  public:
    /**
     * Upstream back-invalidation hook (inclusive policy): invalidate
     * every L1 copy of the block at global address @p addr and
     * return true when any copy was dirty. Registered by the
     * processor after the L1s exist.
     */
    using BackInvalidate = std::function<bool(Addr addr)>;

    L2Cache(StatGroup &stats, MemoryBus &bus, const L2Params &params,
            Tracer *tracer = nullptr);

    /** Install the inclusive-policy back-invalidation hook. */
    void
    setBackInvalidate(BackInvalidate fn)
    {
        backInvalidate_ = std::move(fn);
    }

    // --- MemLevel -----------------------------------------------------
    Cycle fetchBlock(Cycle now, Addr addr, unsigned words) override;
    Cycle writebackBlock(Cycle now, Addr addr, unsigned words) override;
    void cleanEviction(Cycle now, Addr addr, unsigned words) override;
    Cycle nextEventCycle(Cycle now) const override;

    // --- debug / test accessors --------------------------------------
    /** @return true when the block at @p addr is present. */
    bool probe(Addr addr) const;
    /** @return true when the block at @p addr is present and dirty. */
    bool probeDirty(Addr addr) const;
    /** @return the number of valid lines (all banks). */
    std::size_t validLines() const;

    unsigned hitLatency() const { return params_.hitLatency; }
    const L2Params &params() const { return params_; }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;        //!< bank-local block number
        Addr memBlock = 0;   //!< global block number
        std::uint64_t lru = 0;
    };

    /** An in-flight fill occupying an MSHR. */
    struct Mshr
    {
        Addr memBlock = 0;
        Cycle readyAt = 0;
    };

    struct Bank
    {
        std::vector<Way> ways;    //!< sets * assoc
        std::vector<Mshr> mshrs;
        Cycle busyUntil = 0;
    };

    unsigned bankOf(Addr block) const { return unsigned(block) % params_.numBanks; }
    /** Grant the bank to an access (1/cycle pipelining). */
    Cycle grantBank(Bank &bank, Cycle now);
    Way *lookup(Bank &bank, Addr local_block);
    const Way *lookup(const Bank &bank, Addr local_block) const;
    /** Merge with an in-flight fill of @p mem_block, if any. */
    const Mshr *findMshr(const Bank &bank, Addr mem_block) const;
    /**
     * Claim an MSHR for a primary miss granted at @p grant; when the
     * bank's file is full, stall until the earliest in-flight fill
     * frees its entry. @return the (possibly delayed) start cycle.
     */
    Cycle allocMshr(Bank &bank, Cycle grant);
    /**
     * Pick and evict a victim way in @p set (invalid first, else
     * LRU). Dirty victims (or inclusive victims with a dirty L1
     * copy) write back over the bus first. @return the cycle the
     * frame is free, and the victim way via @p way_out.
     */
    Cycle evictFor(Bank &bank, std::size_t set, Cycle start,
                   Way **way_out);
    void install(Way &way, Addr local_block, Addr mem_block,
                 bool dirty);

    StatGroup &stats_;
    Counter bankConflictCycles_{stats_, "bankConflictCycles"};
    Counter mshrStalls_{stats_, "mshrStalls"};
    Counter mshrStallCycles_{stats_, "mshrStallCycles"};
    Counter evictions_{stats_, "evictions"};
    Counter backInvalidations_{stats_, "backInvalidations"};
    Counter writebacks_{stats_, "writebacks"};
    Counter mshrMerges_{stats_, "mshrMerges"};
    Counter readHits_{stats_, "readHits"};
    Counter exclusiveSupplies_{stats_, "exclusiveSupplies"};
    Counter readMisses_{stats_, "readMisses"};
    Counter writeHits_{stats_, "writeHits"};
    Counter writeMisses_{stats_, "writeMisses"};
    Counter victimAllocations_{stats_, "victimAllocations"};
    MemoryBus &bus_;
    L2Params params_;
    Tracer *tracer_ = nullptr;
    BackInvalidate backInvalidate_;
    std::vector<Bank> banks_;
    std::size_t setsPerBank_ = 0;
    std::uint64_t lruClock_ = 0;
};

} // namespace msim

#endif // MSIM_MEM_L2_CACHE_HH
