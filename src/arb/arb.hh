/**
 * @file
 * The Address Resolution Buffer (ARB), paper section 2.3 and
 * Franklin & Sohi [3].
 *
 * The ARB holds the speculative memory operations of the active
 * tasks. Stores performed by speculative tasks are buffered here and
 * update the data cache (functionally: main memory) only when the
 * task commits. Loads search the ARB for the nearest logically
 * preceding store to the same bytes; bytes not found come from
 * committed memory. Per-task load and store byte masks detect memory
 * dependence violations: when a logically earlier task stores to
 * bytes that a logically later task already loaded (with no
 * intervening store by a task in between), the later task and all its
 * successors must be squashed.
 *
 * The ARB also renames memory: two tasks may store to the same
 * address (e.g. the same stack frame of parallel calls to the same
 * function) and each task's loads see its own values, exactly as the
 * paper requires for executing multiple function calls in parallel.
 *
 * Entries are organized per data cache bank (256 entries per bank in
 * the paper's configuration) at an 8-byte granule. When a bank fills,
 * the processor either squashes the latest tasks to reclaim space or
 * stalls all units but the head (both policies from section 2.3);
 * that policy decision lives in the core, driven by hasSpaceFor().
 *
 * Task order is the numeric order of TaskSeq values. The head task is
 * non-speculative: its loads do not set load bits (nothing earlier
 * can violate them) and its stores may write memory directly when the
 * granule holds none of its own speculative bytes.
 */

#ifndef MSIM_ARB_ARB_HH
#define MSIM_ARB_ARB_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/main_memory.hh"
#include "trace/tracer.hh"

namespace msim {

/** The Address Resolution Buffer. */
class Arb
{
  public:
    struct Params
    {
        unsigned numBanks = 8;
        size_t blockBytes = 64;        //!< must match the data banks
        unsigned entriesPerBank = 256;
    };

    Arb(StatGroup &stats, MainMemory &mem, const Params &params,
        Tracer *tracer = nullptr);

    /**
     * Would a load/store of @p size bytes at @p addr by task @p seq
     * fit in the ARB? Head loads never allocate; head stores allocate
     * only when the granule already holds the head's own bytes.
     */
    bool hasSpaceFor(TaskSeq seq, Addr addr, unsigned size, bool is_load,
                     bool is_head) const;

    /**
     * Perform a load: record load bits (unless head) and return the
     * value, taking each byte from the nearest logically preceding
     * store (own task first, then predecessors, then memory).
     */
    std::uint64_t load(TaskSeq seq, Addr addr, unsigned size,
                       bool is_head);

    /**
     * Perform a store: buffer the bytes (or write memory directly for
     * an unbuffered head store) and check for memory dependence
     * violations.
     *
     * @return the sequence number of the earliest violating task
     *         (that task and all after it must be squashed), or
     *         std::nullopt when no violation occurred.
     */
    std::optional<TaskSeq> store(TaskSeq seq, Addr addr, unsigned size,
                                 std::uint64_t value, bool is_head);

    /**
     * Commit a task: flush its buffered stores to memory and release
     * its entries. Must be called in task order.
     */
    void commit(TaskSeq seq);

    /** Squash a task: discard its load bits and buffered stores. */
    void squash(TaskSeq seq);

    /** @return the bank an address maps to (block interleaved). */
    unsigned
    bankOf(Addr addr) const
    {
        return unsigned(addr / Addr(params_.blockBytes)) %
               params_.numBanks;
    }

    /** @return the number of live entries in @p bank. */
    size_t
    entriesInBank(unsigned bank) const
    {
        return banks_[bank].size();
    }

    /** @return total live entries across banks. */
    size_t totalEntries() const;

    /** Drop all state (used between runs). */
    void clear();

  private:
    /** Per-task byte masks and store data for one 8-byte granule. */
    struct TaskRecord
    {
        TaskSeq seq = 0;
        std::uint8_t loadMask = 0;   //!< bytes loaded from outside
        std::uint8_t storeMask = 0;  //!< bytes stored speculatively
        std::uint8_t bytes[8] = {};
    };

    /** One granule entry: records sorted by ascending seq. */
    struct Entry
    {
        std::vector<TaskRecord> records;
    };

    using Bank = std::unordered_map<Addr, Entry>;

    static constexpr Addr kGranule = 8;

    StatGroup &stats_;
    Counter loads_{stats_, "loads"};
    Counter stores_{stats_, "stores"};
    Counter violations_{stats_, "violations"};
    Counter committedStores_{stats_, "committedStores"};
    Counter squashedStores_{stats_, "squashedStores"};
    MainMemory &mem_;
    Params params_;
    Tracer *tracer_ = nullptr;
    std::vector<Bank> banks_;

    /**
     * Granules each live task has a record in, so commit and squash
     * visit exactly the task's own entries instead of scanning every
     * bank. A granule appears at most once per task: a record is
     * created at most once per (seq, granule) and TaskSeq values are
     * never reused.
     */
    std::unordered_map<TaskSeq, std::vector<Addr>> touched_;

    /**
     * Find (or conditionally create) the record for seq in entry.
     * Sets @p created when a record was inserted.
     */
    static TaskRecord *findRecord(Entry &entry, TaskSeq seq, bool create,
                                  bool *created = nullptr);

    /** Visit the granules an access covers. */
    template <typename Fn>
    void
    forGranules(Addr addr, unsigned size, Fn &&fn) const
    {
        Addr first = addr & ~(kGranule - 1);
        Addr last = (addr + size - 1) & ~(kGranule - 1);
        for (Addr g = first; g <= last; g += kGranule) {
            unsigned lo = g < addr ? unsigned(addr - g) : 0;
            unsigned hi_excl = g + kGranule > addr + size
                                   ? unsigned(addr + size - g)
                                   : unsigned(kGranule);
            // Byte range [lo, hi_excl) of this granule participates;
            // byte i of the granule corresponds to overall byte
            // (g + i - addr) of the access.
            fn(g, lo, hi_excl);
        }
    }
};

} // namespace msim

#endif // MSIM_ARB_ARB_HH
