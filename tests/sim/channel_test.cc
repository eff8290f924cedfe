/** @file Unit tests for the duplex link channel. */

#include <vector>

#include <gtest/gtest.h>

#include "sim/channel.hh"

namespace cdma {
namespace {

using Direction = DuplexChannel::Direction;

TEST(DuplexChannel, FullDuplexDirectionsAreIndependent)
{
    EventQueue queue;
    DuplexChannel link(queue, "pcie", 100.0, DuplexMode::Full);
    double out_done = -1.0, in_done = -1.0;
    link.submit(Direction::Out, 100,
                [&](const DuplexChannel::Grant &g) {
                    out_done = g.end;
                    EXPECT_DOUBLE_EQ(g.opposing_wait, 0.0);
                });
    link.submit(Direction::In, 200,
                [&](const DuplexChannel::Grant &g) {
                    in_done = g.end;
                    EXPECT_DOUBLE_EQ(g.opposing_wait, 0.0);
                });
    queue.run();
    // Both directions at the full rate simultaneously: no interaction.
    EXPECT_NEAR(out_done, 1.0, 1e-12);
    EXPECT_NEAR(in_done, 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(link.blockedSeconds(Direction::Out), 0.0);
    EXPECT_DOUBLE_EQ(link.blockedSeconds(Direction::In), 0.0);
}

TEST(DuplexChannel, HalfDuplexSerializesBothDirections)
{
    EventQueue queue;
    DuplexChannel link(queue, "pcie", 100.0, DuplexMode::Half);
    double out_done = -1.0, in_done = -1.0;
    double in_wait = -1.0;
    link.submit(Direction::Out, 100,
                [&](const DuplexChannel::Grant &g) { out_done = g.end; });
    link.submit(Direction::In, 200,
                [&](const DuplexChannel::Grant &g) {
                    in_done = g.end;
                    in_wait = g.opposing_wait;
                });
    queue.run();
    // One shared link: the In transfer waits out the full Out service.
    EXPECT_NEAR(out_done, 1.0, 1e-12);
    EXPECT_NEAR(in_done, 3.0, 1e-12);
    EXPECT_NEAR(in_wait, 1.0, 1e-12);
    EXPECT_NEAR(link.blockedSeconds(Direction::In), 1.0, 1e-12);
    EXPECT_NEAR(link.contentionSeconds(Direction::In), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(link.contentionSeconds(Direction::Out), 0.0);
}

TEST(DuplexChannel, SingleDirectionDegeneratesToFifoChannel)
{
    // With the opposing direction idle, both duplex modes must
    // reproduce a plain FIFO timeline exactly: at 100 B/s, transfers of
    // 100, 50, 250 and 1 bytes end at 1.0, 1.5, 4.0 and 4.01 s.
    const std::vector<double> fifo_ends = {1.0, 1.5, 4.0, 4.01};
    for (const DuplexMode mode : {DuplexMode::Full, DuplexMode::Half}) {
        EventQueue queue;
        DuplexChannel link(queue, "pcie", 100.0, mode);
        std::vector<double> ends;
        for (const uint64_t bytes : {100ull, 50ull, 250ull, 1ull}) {
            link.submit(Direction::Out, bytes,
                        [&](const DuplexChannel::Grant &g) {
                            ends.push_back(g.end);
                            EXPECT_DOUBLE_EQ(g.end, queue.now());
                            EXPECT_DOUBLE_EQ(g.opposing_wait, 0.0);
                        });
        }
        queue.run();
        ASSERT_EQ(ends.size(), fifo_ends.size());
        for (size_t i = 0; i < ends.size(); ++i)
            EXPECT_DOUBLE_EQ(ends[i], fifo_ends[i]) << i;
        EXPECT_DOUBLE_EQ(link.busySeconds(Direction::Out), 4.01);
    }
}

TEST(DuplexChannel, RoundRobinAlternatesUnderSymmetricLoad)
{
    EventQueue queue;
    DuplexChannel link(queue, "pcie", 100.0, DuplexMode::Half,
                       LinkArbiter::RoundRobin);
    std::vector<Direction> served;
    for (int i = 0; i < 3; ++i) {
        link.submit(Direction::Out, 100,
                    [&](const DuplexChannel::Grant &) {
                        served.push_back(Direction::Out);
                    });
        link.submit(Direction::In, 100,
                    [&](const DuplexChannel::Grant &) {
                        served.push_back(Direction::In);
                    });
    }
    queue.run();
    // Strict alternation, Out first (the arbiter's initial tie-break).
    const std::vector<Direction> expected = {
        Direction::Out, Direction::In,  Direction::Out,
        Direction::In,  Direction::Out, Direction::In};
    EXPECT_EQ(served, expected);
    // Fairness: symmetric load, symmetric service.
    EXPECT_DOUBLE_EQ(link.busySeconds(Direction::Out),
                     link.busySeconds(Direction::In));
}

TEST(DuplexChannel, PriorityArbiterDrainsTheNamedDirectionFirst)
{
    for (const LinkArbiter arbiter :
         {LinkArbiter::OffloadFirst, LinkArbiter::PrefetchFirst}) {
        EventQueue queue;
        DuplexChannel link(queue, "pcie", 100.0, DuplexMode::Half,
                           arbiter);
        std::vector<Direction> served;
        // Seed one transfer per direction, then two more per direction
        // while the link is busy: the favored direction drains fully
        // before the other gets a second grant.
        for (int i = 0; i < 3; ++i) {
            link.submit(Direction::Out, 100,
                        [&](const DuplexChannel::Grant &) {
                            served.push_back(Direction::Out);
                        });
            link.submit(Direction::In, 100,
                        [&](const DuplexChannel::Grant &) {
                            served.push_back(Direction::In);
                        });
        }
        queue.run();
        // The very first Out starts the moment it is submitted (link
        // idle, nothing else pending); from then on every grant goes to
        // the favored direction until its queue drains.
        const std::vector<Direction> expected =
            arbiter == LinkArbiter::OffloadFirst
            ? std::vector<Direction>{Direction::Out, Direction::Out,
                                     Direction::Out, Direction::In,
                                     Direction::In, Direction::In}
            : std::vector<Direction>{Direction::Out, Direction::In,
                                     Direction::In, Direction::In,
                                     Direction::Out, Direction::Out};
        EXPECT_EQ(served, expected) << linkArbiterName(arbiter);
    }
}

TEST(DuplexChannel, ConservationBusyTimeBoundedByMakespan)
{
    // Half duplex: one link, so the two directions' busy seconds sum to
    // at most the makespan. Full duplex: each direction alone is
    // bounded by the makespan (2 directions x makespan in total).
    for (const DuplexMode mode : {DuplexMode::Half, DuplexMode::Full}) {
        EventQueue queue;
        DuplexChannel link(queue, "pcie", 100.0, mode);
        for (int i = 0; i < 7; ++i) {
            link.submit(Direction::Out, 50 + 30 * i, nullptr);
            link.submit(Direction::In, 200 - 20 * i, nullptr);
        }
        queue.run();
        const double makespan = link.lastDrain();
        // The occupancy union (the utilization numerator) never
        // exceeds wall time in either mode.
        EXPECT_LE(link.occupiedSeconds(), makespan + 1e-12);
        if (mode == DuplexMode::Half) {
            EXPECT_LE(link.busySeconds(), makespan + 1e-12);
            // One serial link: occupancy equals total service time.
            EXPECT_NEAR(link.occupiedSeconds(), link.busySeconds(),
                        1e-12);
        } else {
            EXPECT_LE(link.busySeconds(Direction::Out), makespan + 1e-12);
            EXPECT_LE(link.busySeconds(Direction::In), makespan + 1e-12);
            EXPECT_LE(link.busySeconds(), 2.0 * makespan + 1e-12);
            // Both directions busy from t=0 here: the union is the
            // slower direction alone, strictly less than the sum.
            EXPECT_LT(link.occupiedSeconds(), link.busySeconds());
        }
    }
}

} // namespace
} // namespace cdma
