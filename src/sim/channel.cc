#include "sim/channel.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cdma {

const char *
duplexModeName(DuplexMode mode)
{
    switch (mode) {
      case DuplexMode::Full: return "full_duplex";
      case DuplexMode::Half: return "half_duplex";
    }
    panic("unreachable duplex mode %d", static_cast<int>(mode));
}

const char *
linkArbiterName(LinkArbiter arbiter)
{
    switch (arbiter) {
      case LinkArbiter::RoundRobin:    return "round_robin";
      case LinkArbiter::OffloadFirst:  return "offload_first";
      case LinkArbiter::PrefetchFirst: return "prefetch_first";
    }
    panic("unreachable arbiter %d", static_cast<int>(arbiter));
}

DuplexChannel::DuplexChannel(EventQueue &queue, std::string name,
                             double bytes_per_second, DuplexMode mode,
                             LinkArbiter arbiter)
    : queue_(queue), name_(std::move(name)),
      bytes_per_second_(bytes_per_second), mode_(mode), arbiter_(arbiter)
{
    CDMA_ASSERT(bytes_per_second > 0.0, "channel %s has no bandwidth",
                name_.c_str());
}

namespace {

/** Grow-on-demand accrual into a per-source-tag accumulator. */
void
accrueSource(std::vector<SimTime> &busy, unsigned source, SimTime amount)
{
    if (busy.size() <= source)
        busy.resize(source + 1, 0.0);
    busy[source] += amount;
}

/** Sum of every tag's accumulator except @p source. */
SimTime
foreignSum(const std::vector<SimTime> &busy, unsigned source)
{
    SimTime sum = 0.0;
    for (size_t tag = 0; tag < busy.size(); ++tag) {
        if (tag != source)
            sum += busy[tag];
    }
    return sum;
}

} // namespace

SimTime
DuplexChannel::sourceBusySeconds(Direction direction,
                                 unsigned source) const
{
    const Side &s = side(direction);
    SimTime busy =
        source < s.source_busy.size() ? s.source_busy[source] : 0.0;
    // Full duplex folds drained segments lazily (on later submits);
    // count the completed portion of anything still in the deque so the
    // accessor is exact at any sampling time.
    const SimTime now = queue_.now();
    for (const Segment &seg : s.segments) {
        if (seg.source == source) {
            busy += std::clamp(now - (seg.end - seg.service), 0.0,
                               seg.service);
        }
    }
    return busy;
}

SimTime
DuplexChannel::busyAccrued(Direction d, SimTime now) const
{
    SimTime accrued = side(d).busy_seconds;
    if (link_busy_ && serving_ == d)
        accrued += now - service_start_;
    return accrued;
}

void
DuplexChannel::noteServiceInterval(SimTime start, SimTime end)
{
    // Per side, intervals are FIFO and contiguous while backlogged; a
    // new interval can start below occupied_until_ (the other side is
    // backlogged into the future) only when its own side was idle, in
    // which case everything before occupied_until_ is already covered —
    // so clipping at the furthest end seen keeps the union exact.
    occupied_seconds_ += std::max(0.0, end - std::max(start,
                                                      occupied_until_));
    occupied_until_ = std::max(occupied_until_, end);
}

void
DuplexChannel::submit(Direction direction, uint64_t bytes,
                      Completion on_done, SimTime extra_latency,
                      unsigned source)
{
    Side &s = side(direction);
    s.total_bytes += bytes;

    if (mode_ == DuplexMode::Full) {
        // Independent directed sub-channels: each direction is a
        // plain FIFO at the full link rate, no cross-direction state at
        // all.
        const SimTime start = std::max(queue_.now(), s.busy_until);
        const SimTime service =
            static_cast<double>(bytes) / bytes_per_second_ +
            extra_latency;
        Grant grant;
        grant.queued_at = queue_.now();
        grant.start = start;
        grant.end = start + service;
        // My wait [now, start) is filled exactly by the not-yet-drained
        // FIFO backlog ahead of me; attribute the foreign-tagged share
        // (the segment in service at `now` contributes only its
        // remaining portion).
        while (!s.segments.empty() &&
               s.segments.front().end <= grant.queued_at) {
            const Segment &done = s.segments.front();
            accrueSource(s.source_busy, done.source, done.service);
            s.segments.pop_front();
        }
        for (const Segment &seg : s.segments) {
            if (seg.source != source) {
                grant.cross_source_wait += std::min(
                    seg.end - grant.queued_at, seg.service);
            }
        }
        s.cross_source_seconds += grant.cross_source_wait;
        s.segments.push_back({grant.end, service, source});
        s.busy_until = grant.end;
        s.busy_seconds += service;
        last_drain_ = std::max(last_drain_, grant.end);
        noteServiceInterval(grant.start, grant.end);
        if (on_done) {
            queue_.scheduleAt(grant.end,
                              [cb = std::move(on_done), grant]() {
                                  cb(grant);
                              });
        }
        return;
    }

    // Half duplex: queue behind the arbiter.
    if (s.queue.empty())
        s.pending_since = queue_.now();
    Pending pending;
    pending.bytes = bytes;
    pending.extra_latency = extra_latency;
    pending.queued_at = queue_.now();
    pending.opposing_busy_at_queue =
        busyAccrued(opposite(direction), queue_.now());
    pending.foreign_busy_at_queue = foreignSum(s.source_busy, source);
    pending.source = source;
    pending.on_done = std::move(on_done);
    s.queue.push_back(std::move(pending));
    tryStartHalf();
}

void
DuplexChannel::tryStartHalf()
{
    if (link_busy_)
        return;
    const bool out_pending = !side(Direction::Out).queue.empty();
    const bool in_pending = !side(Direction::In).queue.empty();
    if (!out_pending && !in_pending)
        return;

    Direction next = Direction::Out;
    if (out_pending != in_pending) {
        next = out_pending ? Direction::Out : Direction::In;
    } else {
        switch (arbiter_) {
          case LinkArbiter::RoundRobin:
            next = opposite(last_served_);
            break;
          case LinkArbiter::OffloadFirst:
            next = Direction::Out;
            break;
          case LinkArbiter::PrefetchFirst:
            next = Direction::In;
            break;
        }
    }

    Side &s = side(next);
    const Pending &head = s.queue.front();
    link_busy_ = true;
    serving_ = next;
    service_start_ = queue_.now();
    const SimTime duration =
        static_cast<double>(head.bytes) / bytes_per_second_ +
        head.extra_latency;
    queue_.scheduleAfter(duration, [this, next, duration,
                                    start = service_start_] {
        finishHalf(next, start, duration);
    });
}

void
DuplexChannel::finishHalf(Direction direction, SimTime service_start,
                          SimTime duration)
{
    const SimTime now = queue_.now();
    Side &s = side(direction);
    s.busy_seconds += duration;
    noteServiceInterval(service_start, now);

    Pending done = std::move(s.queue.front());
    s.queue.pop_front();
    // Same-direction foreign service completed between my submit and my
    // service start is exactly the multi-tenant queueing stall I paid
    // (the link is serial, so nothing of mine was in flight meanwhile;
    // my own service has not been folded into source_busy yet).
    const SimTime cross_source_wait =
        foreignSum(s.source_busy, done.source) -
        done.foreign_busy_at_queue;
    s.cross_source_seconds += cross_source_wait;
    accrueSource(s.source_busy, done.source, duration);
    if (!s.queue.empty())
        s.pending_since = now; // successor becomes head-of-line now

    // Head-of-line blocking: the opposing direction waited while this
    // transfer held the shared link.
    Side &other = side(opposite(direction));
    if (!other.queue.empty()) {
        other.blocked_seconds +=
            now - std::max(service_start, other.pending_since);
    }

    Grant grant;
    grant.queued_at = done.queued_at;
    grant.start = service_start;
    grant.end = now;
    // The opposing direction's cumulative service between submit and
    // service start is exactly the contention this transfer paid (the
    // link is serial, so nothing else fills that gap but own-direction
    // predecessors).
    grant.opposing_wait =
        busyAccrued(opposite(direction), service_start) -
        done.opposing_busy_at_queue;
    grant.cross_source_wait = cross_source_wait;
    s.contention_seconds += grant.opposing_wait;

    link_busy_ = false;
    last_served_ = direction;
    last_drain_ = std::max(last_drain_, now);
    if (done.on_done)
        done.on_done(grant);
    tryStartHalf();
}

} // namespace cdma
