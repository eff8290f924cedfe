/**
 * @file
 * The duplex PCIe link model: two directed FIFO sub-channels (offload
 * out, prefetch in), each serviced in order at a fixed byte rate, that
 * are either independent (full duplex, each direction at the full link
 * rate) or share one contended link (half duplex) under a
 * round-robin/priority arbiter, with per-transfer accounting of the
 * time a direction waited while the link served the opposing one.
 * LinkNetwork runs one DuplexChannel per edge of a Topology graph.
 */

#ifndef CDMA_SIM_CHANNEL_HH
#define CDMA_SIM_CHANNEL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"

namespace cdma {

/**
 * How the two directed sub-channels of a DuplexChannel share the link.
 * Full duplex gives each direction the full configured bandwidth
 * independently (PCIe's nominal operating point); half duplex serializes
 * both directions on one shared link, which is where bidirectional
 * contention appears.
 */
enum class DuplexMode {
    Full, ///< independent per-direction bandwidth, no contention
    Half, ///< one shared link, transfers of both directions serialize
};

/** Display name of a duplex mode ("full_duplex" / "half_duplex"). */
const char *duplexModeName(DuplexMode mode);

/**
 * Which pending direction a contended (half-duplex) link serves next
 * when both have transfers queued. Round-robin alternates; the priority
 * policies always drain the named direction first.
 */
enum class LinkArbiter {
    RoundRobin,      ///< alternate directions under symmetric load
    OffloadFirst,    ///< the Out (offload) direction always wins ties
    PrefetchFirst,   ///< the In (prefetch) direction always wins ties
};

/** Display name of an arbiter policy. */
const char *linkArbiterName(LinkArbiter arbiter);

/**
 * Two directed sub-channels over one (possibly shared) link. Each
 * direction is FIFO within itself; across directions the behavior is
 * set by DuplexMode: Full services both concurrently at the full rate,
 * Half serializes every transfer on the shared link with the arbiter
 * choosing between pending directions. With one direction idle, either
 * mode degenerates to one FIFO at the full link rate exactly.
 */
class DuplexChannel
{
  public:
    /** Transfer direction on the link. */
    enum class Direction : unsigned {
        Out = 0, ///< offload: GPU -> host
        In = 1,  ///< prefetch: host -> GPU
    };

    /** Service record of one completed transfer. */
    struct Grant {
        SimTime queued_at = 0.0; ///< submit time
        SimTime start = 0.0;     ///< service start (after any wait)
        SimTime end = 0.0;       ///< last byte serviced
        /**
         * Portion of [queued_at, start) the link spent serving the
         * opposing direction — the contention stall this transfer paid.
         * Always zero under full duplex.
         */
        SimTime opposing_wait = 0.0;
        /**
         * Portion of [queued_at, start) the link spent serving
         * same-direction transfers of OTHER sources (see the source tag
         * on submit()) — the multi-tenant queueing stall this transfer
         * paid. Zero when every submitter uses one tag.
         */
        SimTime cross_source_wait = 0.0;
    };

    using Completion = std::function<void(const Grant &)>;

    DuplexChannel(EventQueue &queue, std::string name,
                  double bytes_per_second,
                  DuplexMode mode = DuplexMode::Full,
                  LinkArbiter arbiter = LinkArbiter::RoundRobin);

    /**
     * Enqueue a transfer of @p bytes in direction @p direction;
     * @p on_done fires (with the service record) when the last byte has
     * been serviced. FIFO within a direction; across directions the
     * duplex mode + arbiter decide. @p source tags the transfer's
     * originator (e.g. the GPU index behind a shared switch uplink) so
     * the grant can attribute queueing waits to foreign traffic;
     * single-tenant callers leave it at 0.
     */
    void submit(Direction direction, uint64_t bytes, Completion on_done,
                SimTime extra_latency = 0.0, unsigned source = 0);

    /** Configured bandwidth (bytes/second, per direction under Full). */
    double bandwidth() const { return bytes_per_second_; }

    DuplexMode mode() const { return mode_; }
    LinkArbiter arbiter() const { return arbiter_; }
    const std::string &name() const { return name_; }

    /** Total bytes ever submitted in @p direction. */
    uint64_t totalBytes(Direction direction) const
    {
        return side(direction).total_bytes;
    }

    /** Seconds the link spent serving @p direction. */
    SimTime busySeconds(Direction direction) const
    {
        return side(direction).busy_seconds;
    }

    /** Sum of both directions' service time. */
    SimTime busySeconds() const
    {
        return sides_[0].busy_seconds + sides_[1].busy_seconds;
    }

    /**
     * Total time @p direction had a transfer pending while the link was
     * serving the opposing direction (head-of-line blocking). Zero
     * under full duplex.
     */
    SimTime blockedSeconds(Direction direction) const
    {
        return side(direction).blocked_seconds;
    }

    /** Sum of per-transfer opposing waits in @p direction. */
    SimTime contentionSeconds(Direction direction) const
    {
        return side(direction).contention_seconds;
    }

    /** Sum of per-transfer cross-source waits in @p direction. */
    SimTime crossSourceSeconds(Direction direction) const
    {
        return side(direction).cross_source_seconds;
    }

    /**
     * Seconds the link spent serving transfers tagged @p source in
     * @p direction (completed service only — a transfer in flight
     * accrues at its completion).
     */
    SimTime sourceBusySeconds(Direction direction, unsigned source) const;

    /** Completion time of the last transfer serviced so far. */
    SimTime lastDrain() const { return last_drain_; }

    /**
     * Wall-clock seconds the link had at least one direction in
     * service — the union of both directions' busy intervals, never
     * exceeding elapsed time (under Half it equals busySeconds(); under
     * Full simultaneous bidirectional service counts once). This is
     * the utilization numerator; busySeconds() double-counts overlap.
     */
    SimTime occupiedSeconds() const { return occupied_seconds_; }

  private:
    struct Pending {
        uint64_t bytes = 0;
        SimTime extra_latency = 0.0;
        SimTime queued_at = 0.0;
        /** Opposing cumulative busy seconds sampled at submit. */
        SimTime opposing_busy_at_queue = 0.0;
        /** Same-direction foreign-source completed service at submit. */
        SimTime foreign_busy_at_queue = 0.0;
        unsigned source = 0;
        Completion on_done;
    };

    /** One scheduled service interval on a full-duplex FIFO timeline. */
    struct Segment {
        SimTime end = 0.0;     ///< scheduled completion time
        SimTime service = 0.0; ///< service duration
        unsigned source = 0;
    };

    /** Per-direction state (queue, stats, full-duplex FIFO horizon). */
    struct Side {
        std::deque<Pending> queue;
        SimTime pending_since = 0.0; ///< valid while queue non-empty
        SimTime busy_until = 0.0;    ///< full-duplex FIFO horizon
        SimTime busy_seconds = 0.0;
        SimTime blocked_seconds = 0.0;
        SimTime contention_seconds = 0.0;
        SimTime cross_source_seconds = 0.0;
        uint64_t total_bytes = 0;
        /** Completed service seconds per source tag. */
        std::vector<SimTime> source_busy;
        /** Scheduled-but-not-drained service (full duplex FIFO). */
        std::deque<Segment> segments;
    };

    Side &side(Direction d) { return sides_[static_cast<unsigned>(d)]; }
    const Side &side(Direction d) const
    {
        return sides_[static_cast<unsigned>(d)];
    }
    static Direction opposite(Direction d)
    {
        return d == Direction::Out ? Direction::In : Direction::Out;
    }

    /** Cumulative busy seconds of @p d as of time @p now. */
    SimTime busyAccrued(Direction d, SimTime now) const;

    /** Fold service interval [start, end) into the occupancy union. */
    void noteServiceInterval(SimTime start, SimTime end);

    void tryStartHalf();
    void finishHalf(Direction direction, SimTime service_start,
                    SimTime duration);

    EventQueue &queue_;
    std::string name_;
    double bytes_per_second_;
    DuplexMode mode_;
    LinkArbiter arbiter_;
    Side sides_[2];
    bool link_busy_ = false;           // half duplex: link serial
    Direction serving_ = Direction::Out;
    SimTime service_start_ = 0.0;
    Direction last_served_ = Direction::In; // first tie goes to Out
    SimTime last_drain_ = 0.0;
    SimTime occupied_seconds_ = 0.0;
    SimTime occupied_until_ = 0.0; // furthest busy-interval end so far
};

} // namespace cdma

#endif // CDMA_SIM_CHANNEL_HH
