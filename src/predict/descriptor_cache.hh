/**
 * @file
 * The sequencer's task descriptor cache: 1024 entries, direct mapped
 * (paper section 5.1). Timing model only — descriptors are read
 * functionally from the Program. A miss fetches the descriptor (one
 * bus transfer) before the task can be assigned.
 */

#ifndef MSIM_PREDICT_DESCRIPTOR_CACHE_HH
#define MSIM_PREDICT_DESCRIPTOR_CACHE_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/bus.hh"

namespace msim {

/** Direct-mapped cache of task descriptors (timing only). */
class DescriptorCache
{
  public:
    DescriptorCache(StatGroup &stats, MemoryBus &bus,
                    unsigned entries = 1024)
        : stats_(stats), bus_(bus), tags_(entries, kBadAddr)
    {
        fatalIf(entries == 0, "descriptor cache needs entries");
    }

    /**
     * Look up the descriptor for the task at @p addr.
     *
     * @return the cycle the descriptor is available (hit: now + 1).
     */
    Cycle
    access(Cycle now, Addr addr)
    {
        const size_t idx = size_t(addr / kInstrBytes) % tags_.size();
        if (tags_[idx] == addr) {
            hits_.add();
            return now + 1;
        }
        misses_.add();
        tags_[idx] = addr;
        // A descriptor is 4 words (mask, targets); one bus beat.
        return bus_.request(now, 4) + 1;
    }

    /** Invalidate the cache (between runs). */
    void
    clear()
    {
        std::fill(tags_.begin(), tags_.end(), kBadAddr);
    }

  private:
    StatGroup &stats_;
    Counter hits_{stats_, "hits"};
    Counter misses_{stats_, "misses"};
    MemoryBus &bus_;
    std::vector<Addr> tags_;
};

} // namespace msim

#endif // MSIM_PREDICT_DESCRIPTOR_CACHE_HH
