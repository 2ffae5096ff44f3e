/**
 * @file
 * The single split-transaction memory bus shared by all caches.
 *
 * Paper section 5.1: "All memory requests are handled by a single
 * 4-word split transaction memory bus. Each memory access requires a
 * 10 cycle access latency for the first 4 words and 1 cycle for each
 * additional 4 words." Requests are serviced in arrival order; a
 * request arriving while the bus is busy queues behind it ("plus any
 * bus contention" in the cache miss penalty).
 */

#ifndef MSIM_MEM_BUS_HH
#define MSIM_MEM_BUS_HH

#include "common/stats.hh"
#include "common/types.hh"
#include "trace/tracer.hh"

namespace msim {

/** Timing model of the shared memory bus. */
class MemoryBus
{
  public:
    struct Params
    {
        unsigned firstBeatLatency = 10;  //!< cycles for the first 4 words
        unsigned extraBeatLatency = 1;   //!< per additional 4 words
        unsigned beatWords = 4;          //!< words per beat
    };

    explicit MemoryBus(StatGroup &stats) : MemoryBus(stats, Params{}) {}

    MemoryBus(StatGroup &stats, const Params &params,
              Tracer *tracer = nullptr)
        : stats_(stats), params_(params), tracer_(tracer)
    {
    }

    /**
     * Request a transfer of @p words 32-bit words starting no earlier
     * than cycle @p now.
     *
     * @return the cycle at which the data is available.
     */
    Cycle
    request(Cycle now, unsigned words)
    {
        unsigned beats = (words + params_.beatWords - 1) /
                         params_.beatWords;
        if (beats == 0)
            beats = 1;
        Cycle start = now > busFreeAt_ ? now : busFreeAt_;
        Cycle service = params_.firstBeatLatency +
                        (beats - 1) * params_.extraBeatLatency;
        Cycle done = start + service;
        requests_.add();
        words_.add(words);
        busyCycles_.add(service);
        if (start > now)
            contentionCycles_.add(start - now);
        busFreeAt_ = done;
        if (tracer_ && tracer_->wants(TraceCat::kBus)) {
            tracer_->complete(TraceCat::kBus, "xfer", start, service,
                              kTidBus, "words", words);
        }
        return done;
    }

    /** @return the cycle at which the bus next becomes free. */
    Cycle freeAt() const { return busFreeAt_; }

    /** Reset the timing state (not the statistics). */
    void reset() { busFreeAt_ = 0; }

  private:
    StatGroup &stats_;
    Counter requests_{stats_, "requests"};
    Counter words_{stats_, "words"};
    Counter busyCycles_{stats_, "busyCycles"};
    Counter contentionCycles_{stats_, "contentionCycles"};
    Params params_;
    Tracer *tracer_;
    Cycle busFreeAt_ = 0;
};

} // namespace msim

#endif // MSIM_MEM_BUS_HH
