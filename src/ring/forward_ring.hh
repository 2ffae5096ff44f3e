/**
 * @file
 * The unidirectional ring that forwards register values between
 * adjacent processing units (paper Figure 1 and section 5.1).
 *
 * Each hop imposes one cycle of communication latency, and the ring
 * width matches the issue width of the units: at most `width`
 * messages may enter a unit's outbound link per cycle; excess
 * messages queue. A message delivered to a unit may continue around
 * the ring (the receiver decides: propagation stops at a unit whose
 * own create mask contains the register, because that unit will send
 * a fresher value to its successors). A message that has visited all
 * other units is dropped.
 */

#ifndef MSIM_RING_FORWARD_RING_HH
#define MSIM_RING_FORWARD_RING_HH

#include <vector>

#include "common/fifo.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/exec.hh"
#include "trace/tracer.hh"

namespace msim {

/** A register value in flight on the ring. */
struct RingMessage
{
    RegIndex reg = kNoReg;
    isa::RegValue value;
    /** Task that produced the value. */
    TaskSeq producer = 0;
    /** Hops taken so far (dropped after numUnits - 1). */
    unsigned hops = 0;
};

/** The unidirectional register forwarding ring. */
class ForwardRing
{
  public:
    ForwardRing(StatGroup &stats, unsigned num_units, unsigned width,
                unsigned hop_latency = 1, Tracer *tracer = nullptr)
        : stats_(stats), numUnits_(num_units), width_(width),
          hopLatency_(hop_latency), tracer_(tracer),
          outbound_(num_units), inFlight_(num_units)
    {
        fatalIf(num_units == 0, "ring needs at least one unit");
        fatalIf(width == 0, "ring width must be positive");
        fatalIf(hop_latency == 0, "ring hop latency must be >= 1");
    }

    /** Queue a message on @p from_unit's outbound port. */
    void
    send(unsigned from_unit, const RingMessage &msg)
    {
        panicIf(from_unit >= numUnits_, "ring send from bad unit");
        outbound_[from_unit].push_back(msg);
        sends_.add();
        if (tracer_ && tracer_->wants(TraceCat::kRing)) {
            tracer_->instant(TraceCat::kRing, "forward", tracer_->now(),
                             kTidRing, "from", from_unit, "reg",
                             std::uint64_t(msg.reg));
        }
    }

    /**
     * Advance the ring one cycle.
     *
     * @param deliver Callback (unsigned unit, const RingMessage &)
     *        -> bool; invoked for each message arriving at a unit;
     *        return true to let the message continue to the next
     *        unit, false to consume it.
     */
    template <typename Fn>
    void
    tick(Fn &&deliver)
    {
        if (numUnits_ == 1) {
            for (auto &q : outbound_)
                q.clear();
            return;
        }
        // Age in-flight messages and deliver the ones that arrive.
        for (unsigned u = 0; u < numUnits_; ++u) {
            auto &flight = inFlight_[u];
            size_t n = flight.size();
            for (size_t i = 0; i < n; ++i) {
                Hop hop = flight.front();
                flight.pop_front();
                if (--hop.cyclesLeft > 0) {
                    flight.push_back(hop);
                    continue;
                }
                const unsigned dest = (u + 1) % numUnits_;
                RingMessage msg = hop.msg;
                msg.hops += 1;
                deliveries_.add();
                bool forward_on = deliver(dest, msg);
                if (forward_on && msg.hops < numUnits_ - 1)
                    outbound_[dest].push_back(msg);
            }
        }
        // Launch up to `width` messages per outbound port.
        for (unsigned u = 0; u < numUnits_; ++u) {
            for (unsigned k = 0; k < width_ && !outbound_[u].empty();
                 ++k) {
                inFlight_[u].push_back(
                    {outbound_[u].front(), hopLatency_});
                outbound_[u].pop_front();
            }
            if (!outbound_[u].empty())
                portStallCycles_.add();
        }
    }

    /** @return true when no messages are queued or in flight. */
    bool
    idle() const
    {
        for (unsigned u = 0; u < numUnits_; ++u) {
            if (!outbound_[u].empty() || !inFlight_[u].empty())
                return false;
        }
        return true;
    }

    /** Drop all traffic (used on full-pipeline resets in tests). */
    void
    clear()
    {
        for (auto &q : outbound_)
            q.clear();
        for (auto &q : inFlight_)
            q.clear();
    }

    unsigned numUnits() const { return numUnits_; }
    unsigned width() const { return width_; }
    unsigned hopLatency() const { return hopLatency_; }

  private:
    struct Hop
    {
        RingMessage msg;
        unsigned cyclesLeft;
    };

    StatGroup &stats_;
    Counter sends_{stats_, "sends"};
    Counter deliveries_{stats_, "deliveries"};
    Counter portStallCycles_{stats_, "portStallCycles"};
    unsigned numUnits_;
    unsigned width_;
    unsigned hopLatency_;
    Tracer *tracer_ = nullptr;
    /** Messages waiting at each unit's outbound port. */
    std::vector<RingFifo<RingMessage>> outbound_;
    /** Messages traversing the link out of each unit. */
    std::vector<RingFifo<Hop>> inFlight_;
};

} // namespace msim

#endif // MSIM_RING_FORWARD_RING_HH
