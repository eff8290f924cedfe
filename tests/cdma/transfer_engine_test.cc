/**
 * @file
 * Tests for the unified full-duplex TransferEngine: conservation and
 * degeneracy properties of the duplex DES (one direction idle must
 * reproduce the closed form at 1e-9), arbiter fairness under
 * symmetric load, half-vs-full duplex contention, byte-identity of
 * spill-arena round trips at 1/2/8 lanes, and the contended surfaces
 * on TransferPlan, VdnnMemoryManager::duplexSchedule and the step
 * simulator.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cdma/transfer_engine.hh"
#include "common/rng.hh"
#include "perf/step_sim.hh"
#include "vdnn/memory_manager.hh"

namespace cdma {
namespace {

/** ReLU-like fp32 words at the given density. */
std::vector<uint8_t>
makeInput(double density, size_t bytes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> input(bytes, 0);
    const size_t words = bytes / 4;
    for (size_t i = 0; i < words; ++i) {
        if (density > 0.0 && rng.bernoulli(density)) {
            const float value =
                1.0f + static_cast<float>(std::abs(rng.normal()));
            std::memcpy(input.data() + i * 4, &value, 4);
        }
    }
    for (size_t i = words * 4; i < bytes; ++i)
        input[i] = static_cast<uint8_t>(1 + rng.uniformInt(255));
    return input;
}

CdmaEngine
makeEngine(unsigned lanes, DuplexMode mode = DuplexMode::Full,
           LinkArbiter arbiter = LinkArbiter::RoundRobin)
{
    CdmaConfig config;
    config.compression.lanes = lanes;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.transfer.duplex_mode = mode;
    config.transfer.link_arbiter = arbiter;
    return CdmaEngine(config);
}

/** Mixed shard train for the DES property sweeps. */
std::vector<ShardTransfer>
makeShards(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<ShardTransfer> shards;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t raw = 4096 + 4096 * rng.uniformInt(16);
        shards.push_back({raw, raw / (1 + rng.uniformInt(8))});
    }
    return shards;
}

TEST(DuplexPipeline, IdlePrefetchDirectionReducesToOffloadClosedForm)
{
    // The duplex DES with the opposing direction empty must reproduce
    // each direction of the closed form to 1e-9.
    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine engine(config);
    const TransferEngine transfers(engine);
    const uint64_t shard_raw =
        transfers.shardWindows() * config.compression.window_bytes;

    for (const double ratio : {1.0, 2.5, 12.5, 40.0}) {
        for (const uint64_t raw :
             {shard_raw / 2, shard_raw, 3 * shard_raw,
              7 * shard_raw + shard_raw / 3, 64 * shard_raw + 4097}) {
            const DuplexTiming closed = transfers.closedForm(raw, ratio);
            const OffloadTiming &off_closed = closed.offload;
            const DuplexTiming off_only =
                transfers.modelFromRatio(raw, ratio, 0, 1.0);
            EXPECT_EQ(off_only.offload.shard_count,
                      off_closed.shard_count);
            EXPECT_NEAR(off_only.offload.overlapped_seconds,
                        off_closed.overlapped_seconds,
                        1e-9 * off_closed.overlapped_seconds)
                << "raw=" << raw << " ratio=" << ratio;
            EXPECT_NEAR(off_only.offload.compress_seconds,
                        off_closed.compress_seconds,
                        1e-9 * off_closed.compress_seconds);
            EXPECT_NEAR(off_only.offload.wire_seconds,
                        off_closed.wire_seconds,
                        1e-9 * std::max(off_closed.wire_seconds, 1e-30));
            EXPECT_DOUBLE_EQ(off_only.contentionSeconds(), 0.0);
            EXPECT_DOUBLE_EQ(off_only.makespan_seconds,
                             off_only.offload.overlapped_seconds);
            // Idle prefetch direction reports an empty pipeline.
            EXPECT_EQ(off_only.prefetch.shard_count, 0u);
            EXPECT_DOUBLE_EQ(off_only.prefetch.overlapped_seconds, 0.0);

            const PrefetchTiming &pre_closed = closed.prefetch;
            const DuplexTiming pre_only =
                transfers.modelFromRatio(0, 1.0, raw, ratio);
            EXPECT_EQ(pre_only.prefetch.shard_count,
                      pre_closed.shard_count);
            EXPECT_NEAR(pre_only.prefetch.overlapped_seconds,
                        pre_closed.overlapped_seconds,
                        1e-9 * pre_closed.overlapped_seconds)
                << "raw=" << raw << " ratio=" << ratio;
            EXPECT_NEAR(pre_only.prefetch.wire_seconds,
                        pre_closed.wire_seconds,
                        1e-9 * std::max(pre_closed.wire_seconds, 1e-30));
            EXPECT_NEAR(pre_only.prefetch.decompress_seconds,
                        pre_closed.decompress_seconds,
                        1e-9 * pre_closed.decompress_seconds);
            EXPECT_DOUBLE_EQ(pre_only.contentionSeconds(), 0.0);
            EXPECT_EQ(pre_only.offload.shard_count, 0u);
        }
    }
}

TEST(DuplexPipeline, ConservationBusyTimeBoundedByMakespan)
{
    // Sum of per-direction wire busy time never exceeds the duplex
    // makespan times the number of directions — and under half duplex
    // (one shared link) it is bounded by the makespan alone.
    for (const DuplexMode mode : {DuplexMode::Half, DuplexMode::Full}) {
        for (const unsigned buffers : {1u, 2u, 3u}) {
            for (const uint64_t seed : {1ull, 2ull, 3ull}) {
                const auto off_shards = makeShards(17, seed);
                const auto pre_shards = makeShards(23, seed + 100);
                const DuplexTiming timing =
                    TransferEngine::pipelineTiming(
                        off_shards, pre_shards, 200e9, 12.8e9, 200e9,
                        buffers, mode, LinkArbiter::RoundRobin);
                const double wire_busy = timing.offload.wire_seconds +
                    timing.prefetch.wire_seconds;
                if (mode == DuplexMode::Half) {
                    EXPECT_LE(wire_busy,
                              timing.makespan_seconds + 1e-12);
                } else {
                    EXPECT_LE(wire_busy,
                              2.0 * timing.makespan_seconds + 1e-12);
                }
                // Each direction's makespan bounds the duplex makespan
                // from below and is itself at least its busy legs' max.
                EXPECT_GE(timing.makespan_seconds,
                          timing.offload.overlapped_seconds - 1e-12);
                EXPECT_GE(timing.makespan_seconds,
                          timing.prefetch.overlapped_seconds - 1e-12);
                // Contention only exists on a shared link.
                if (mode == DuplexMode::Full) {
                    EXPECT_DOUBLE_EQ(timing.contentionSeconds(), 0.0);
                }
            }
        }
    }
}

TEST(DuplexPipeline, HalfDuplexContendsAndFullDuplexDoesNot)
{
    // Identical symmetric trains in both directions, wire-bound so the
    // link is the bottleneck: under half duplex each direction must be
    // slower than it would be alone and report nonzero contention;
    // under full duplex both match the single-direction timelines
    // exactly.
    const uint64_t raw = 1 << 20;
    const std::vector<ShardTransfer> train(
        16, {raw, static_cast<uint64_t>(raw / 2.5)});

    const DuplexTiming alone = TransferEngine::pipelineTiming(
        train, {}, 200e9, 12.8e9, 200e9, 2, DuplexMode::Half,
        LinkArbiter::RoundRobin);
    const DuplexTiming full = TransferEngine::pipelineTiming(
        train, train, 200e9, 12.8e9, 200e9, 2, DuplexMode::Full,
        LinkArbiter::RoundRobin);
    const DuplexTiming half = TransferEngine::pipelineTiming(
        train, train, 200e9, 12.8e9, 200e9, 2, DuplexMode::Half,
        LinkArbiter::RoundRobin);

    EXPECT_DOUBLE_EQ(full.offload.overlapped_seconds,
                     alone.offload.overlapped_seconds);
    EXPECT_DOUBLE_EQ(full.contentionSeconds(), 0.0);

    EXPECT_GT(half.offload.overlapped_seconds,
              alone.offload.overlapped_seconds);
    EXPECT_GT(half.contentionSeconds(), 0.0);
    EXPECT_GT(half.contentionStallFraction(), 0.0);
    EXPECT_LE(half.contentionStallFraction(), 1.0);
    // A shared wire-bound link serving two equal trains takes about
    // twice as long as either train alone.
    EXPECT_GT(half.makespan_seconds,
              1.8 * alone.offload.overlapped_seconds);
}

TEST(DuplexPipeline, RoundRobinIsFairUnderSymmetricLoad)
{
    // Equal trains in both directions under round-robin: the two
    // directions' makespans and contention shares must come out (near)
    // symmetric — neither direction starves.
    const uint64_t raw = 1 << 20;
    const std::vector<ShardTransfer> train(
        12, {raw, static_cast<uint64_t>(raw / 3.0)});
    const DuplexTiming timing = TransferEngine::pipelineTiming(
        train, train, 200e9, 12.8e9, 200e9, 2, DuplexMode::Half,
        LinkArbiter::RoundRobin);

    const double off = timing.offload.overlapped_seconds;
    const double pre = timing.prefetch.overlapped_seconds;
    EXPECT_NEAR(off, pre, 0.10 * std::max(off, pre));
    // Both directions pay contention, in comparable shares (a transfer
    // can wait out several opposing grants, so the per-direction sums
    // are bounded by the race's length, not the opposing wire total).
    EXPECT_GT(timing.offload_contention_seconds, 0.0);
    EXPECT_GT(timing.prefetch_contention_seconds, 0.0);
    EXPECT_NEAR(timing.offload_contention_seconds,
                timing.prefetch_contention_seconds,
                0.25 * std::max(timing.offload_contention_seconds,
                                timing.prefetch_contention_seconds));
}

TEST(DuplexPipeline, PriorityArbiterFavorsItsDirection)
{
    const uint64_t raw = 1 << 20;
    const std::vector<ShardTransfer> train(
        12, {raw, static_cast<uint64_t>(raw / 3.0)});
    const DuplexTiming off_first = TransferEngine::pipelineTiming(
        train, train, 200e9, 12.8e9, 200e9, 2, DuplexMode::Half,
        LinkArbiter::OffloadFirst);
    const DuplexTiming pre_first = TransferEngine::pipelineTiming(
        train, train, 200e9, 12.8e9, 200e9, 2, DuplexMode::Half,
        LinkArbiter::PrefetchFirst);
    // The favored direction finishes earlier than it does when the
    // other direction is favored.
    EXPECT_LT(off_first.offload.overlapped_seconds,
              pre_first.offload.overlapped_seconds);
    EXPECT_LT(pre_first.prefetch.overlapped_seconds,
              off_first.prefetch.overlapped_seconds);
}

TEST(TransferEngine, SpillArenaRoundTripsByteIdenticalAcrossLanes)
{
    // The arena flow (offloadInto -> prefetch(arena, ticket)) must
    // restore byte-identical data at 1/2/8 compression lanes, and
    // the restored bytes and shard trains must not depend on lane
    // count.
    const auto input = makeInput(0.4, (1 << 20) + 123, 929);
    std::vector<ByteVec> restored;
    for (const unsigned lanes : {1u, 2u, 8u}) {
        const CdmaEngine engine = makeEngine(lanes);
        const TransferEngine transfers(engine);
        SpillArena arena;
        const SpilledOffload spilled =
            transfers.offloadInto(input, arena).value();
        const PrefetchResult result =
            transfers.prefetch(arena, spilled.ticket).value();
        EXPECT_EQ(result.data,
                  ByteVec(input.begin(), input.end()))
            << lanes << " lanes";
        ASSERT_EQ(result.shards.size(), spilled.shards.size());
        for (size_t i = 0; i < result.shards.size(); ++i) {
            EXPECT_EQ(result.shards[i].raw_bytes,
                      spilled.shards[i].raw_bytes);
            EXPECT_EQ(result.shards[i].wire_bytes,
                      spilled.shards[i].wire_bytes);
        }
        arena.release(spilled.ticket);
        restored.push_back(result.data);
    }
    EXPECT_EQ(restored[0], restored[1]);
    EXPECT_EQ(restored[0], restored[2]);
}

TEST(TransferEngine, FullDuplexStepRacesOffloadAgainstPrefetch)
{
    // The steady-state training step: offload layer n+1's input while
    // prefetching layer n-1's out of the arena, both on one half-duplex
    // link. Restored bytes stay identical and both directions report
    // the contention the shared link imposed.
    const auto earlier = makeInput(0.5, (1 << 19) + 77, 31);
    const auto later = makeInput(0.3, (1 << 19) + 4096, 32);
    const CdmaEngine engine = makeEngine(2, DuplexMode::Half);
    const TransferEngine transfers(engine);
    SpillArena arena;

    const SpilledOffload first =
        transfers.offloadInto(earlier, arena).value();
    const SpilledOffload offloaded =
        transfers.offloadInto(later, arena).value();
    const PrefetchResult prefetched =
        transfers.prefetch(arena, first.ticket).value();
    EXPECT_EQ(prefetched.data, ByteVec(earlier.begin(), earlier.end()));
    arena.release(first.ticket);

    const PrefetchResult second =
        transfers.prefetch(arena, offloaded.ticket).value();
    EXPECT_EQ(second.data, ByteVec(later.begin(), later.end()));
    arena.release(offloaded.ticket);

    // Re-time both measured shard trains as one race on the shared
    // link: wire-bound ZV-class trains must cost someone something, and
    // neither direction can beat its uncontended solo timeline.
    const DuplexTiming race =
        transfers.duplexTiming(offloaded.shards, prefetched.shards);
    EXPECT_GT(race.contentionSeconds(), 0.0);
    EXPECT_GT(race.makespan_seconds, 0.0);
    EXPECT_GE(race.offload.overlapped_seconds,
              offloaded.timing.overlapped_seconds);
    EXPECT_GE(race.prefetch.overlapped_seconds,
              prefetched.timing.overlapped_seconds);
}

TEST(CdmaEngine, PlansCarryDuplexTiming)
{
    const uint64_t raw = 64ull << 20;

    // Full duplex: the duplex race's per-direction breakdowns coincide
    // with the independent single-direction pipelines.
    const CdmaEngine full = makeEngine(1, DuplexMode::Full);
    const TransferPlan full_plan = full.planFromRatio("map", raw, 2.5);
    EXPECT_GT(full_plan.duplex.offload.shard_count, 0u);
    // The duplex DES against the closed form: 1e-9, the same pin the
    // degenerate-direction tests use.
    EXPECT_NEAR(full_plan.duplex.offload.overlapped_seconds,
                full_plan.offload.overlapped_seconds,
                1e-9 * full_plan.offload.overlapped_seconds);
    EXPECT_NEAR(full_plan.duplex.prefetch.overlapped_seconds,
                full_plan.prefetch.overlapped_seconds,
                1e-9 * full_plan.prefetch.overlapped_seconds);
    EXPECT_DOUBLE_EQ(full_plan.duplex.contentionSeconds(), 0.0);

    // Half duplex: the race on the shared link shows up as contention
    // and stretches at least one direction past its solo makespan.
    const CdmaEngine half = makeEngine(1, DuplexMode::Half);
    const TransferPlan half_plan = half.planFromRatio("map", raw, 2.5);
    EXPECT_GT(half_plan.duplex.contentionSeconds(), 0.0);
    EXPECT_GT(half_plan.duplex.contentionStallFraction(), 0.0);
    EXPECT_GE(half_plan.duplex.makespan_seconds,
              std::max(half_plan.offload.overlapped_seconds,
                       half_plan.prefetch.overlapped_seconds));

    // Real-bytes planning carries the same surface.
    const auto input = makeInput(0.25, 1 << 20, 47);
    const TransferPlan real = half.planTransfer("real", input);
    EXPECT_GT(real.duplex.offload.shard_count, 0u);
    EXPECT_GT(real.duplex.contentionSeconds(), 0.0);

    // CompressionFree keeps the seed model: no duplex breakdown.
    CdmaConfig free_config;
    free_config.transfer.duplex_mode = DuplexMode::Half;
    const CdmaEngine free_engine(free_config);
    const TransferPlan free_plan =
        free_engine.planFromRatio("map", raw, 2.5);
    EXPECT_EQ(free_plan.duplex.offload.shard_count, 0u);
    EXPECT_DOUBLE_EQ(free_plan.duplex.makespan_seconds, 0.0);
}

TEST(VdnnMemoryManager, DuplexScheduleInterleavesBothDirections)
{
    const NetworkDesc net = allNetworkDescs().front();
    const VdnnMemoryManager manager(net, 16);
    const auto &offloads = manager.offloadSchedule();
    const auto schedule = manager.duplexSchedule();
    ASSERT_EQ(schedule.size(), 2 * offloads.size());
    for (size_t k = 0; k < offloads.size(); ++k) {
        // Offloads in forward order...
        EXPECT_EQ(schedule[k].direction, TransferDirection::Offload);
        EXPECT_EQ(schedule[k].op.layer_index, offloads[k].layer_index);
        EXPECT_EQ(schedule[k].op.bytes, offloads[k].bytes);
        // ...then prefetches in backward order, one per offload.
        const auto &pre = schedule[offloads.size() + k];
        EXPECT_EQ(pre.direction, TransferDirection::Prefetch);
        EXPECT_EQ(pre.op.layer_index,
                  offloads[offloads.size() - 1 - k].layer_index);
    }
}

TEST(StepSimulator, HalfDuplexReportsContentionStall)
{
    const NetworkDesc net = allNetworkDescs().front();
    const VdnnMemoryManager manager(net, net.default_batch);
    PerfModel perf;

    // A link slow enough that the last layer's offload is guaranteed
    // to still be draining when its forward compute finishes: the
    // parked head prefetch then releases the boundary lookahead, and
    // already-resident maps race the tail offload on the link.
    CdmaConfig full_config;
    full_config.transfer.duplex_mode = DuplexMode::Full;
    full_config.gpu.pcie_effective_bandwidth = 2e9;
    const CdmaEngine full_engine(full_config);
    CdmaConfig half_config;
    half_config.transfer.duplex_mode = DuplexMode::Half;
    half_config.gpu.pcie_effective_bandwidth = 2e9;
    const CdmaEngine half_engine(half_config);

    const StepSimulator full_sim(manager, full_engine, perf,
                                 CudnnVersion::V5);
    const StepSimulator half_sim(manager, half_engine, perf,
                                 CudnnVersion::V5);

    const StepResult full = full_sim.run(StepMode::Vdnn);
    const StepResult half = half_sim.run(StepMode::Vdnn);

    // Independent directions never contend.
    EXPECT_DOUBLE_EQ(full.contentionStallFraction(), 0.0);
    EXPECT_DOUBLE_EQ(full.offload_contention_seconds, 0.0);

    // One shared link: the boundary race (tail offloads vs head
    // prefetches) must cost something, and the iteration cannot be
    // faster than with independent directions.
    EXPECT_GT(half.contentionStallFraction(), 0.0);
    EXPECT_GT(half.offload_contention_seconds +
                  half.prefetch_contention_seconds,
              0.0);
    EXPECT_GE(half.total_seconds, full.total_seconds - 1e-12);

    // Per-layer contention surfaces: some layer paid the race.
    double layer_contention = 0.0;
    bool saw_fraction = false;
    for (const auto &layer : half.layers) {
        layer_contention +=
            layer.offload_contention + layer.prefetch_contention;
        EXPECT_GE(layer.offload_contention, 0.0) << layer.label;
        EXPECT_GE(layer.prefetch_contention, 0.0) << layer.label;
        EXPECT_LE(layer.contentionStallFraction(), 1.0 + 1e-9)
            << layer.label;
        if (layer.contentionStallFraction() > 0.0)
            saw_fraction = true;
    }
    EXPECT_GT(layer_contention, 0.0);
    EXPECT_TRUE(saw_fraction);
    EXPECT_NEAR(layer_contention,
                half.offload_contention_seconds +
                    half.prefetch_contention_seconds,
                1e-9);
}

TEST(StepSimulator, DuplexInvariantsHoldAcrossModesAndArbiters)
{
    const NetworkDesc net = allNetworkDescs()[1];
    const VdnnMemoryManager manager(net, net.default_batch);
    PerfModel perf;
    const std::vector<double> ratios(net.layers.size(), 2.6);

    for (const DuplexMode mode : {DuplexMode::Full, DuplexMode::Half}) {
        for (const LinkArbiter arbiter :
             {LinkArbiter::RoundRobin, LinkArbiter::OffloadFirst,
              LinkArbiter::PrefetchFirst}) {
            CdmaConfig config;
            config.transfer.duplex_mode = mode;
            config.transfer.link_arbiter = arbiter;
            const CdmaEngine engine(config);
            const StepSimulator sim(manager, engine, perf,
                                    CudnnVersion::V5);
            const StepResult vdnn = sim.run(StepMode::Vdnn);
            const StepResult cdma = sim.run(StepMode::Cdma, ratios);
            const StepResult oracle = sim.run(StepMode::Oracle);
            // The paper's ordering relations survive the contended
            // timeline under every link configuration.
            EXPECT_LE(cdma.total_seconds, vdnn.total_seconds + 1e-12)
                << duplexModeName(mode) << "/"
                << linkArbiterName(arbiter);
            EXPECT_GE(cdma.total_seconds, oracle.total_seconds - 1e-12);
            EXPECT_NEAR(vdnn.total_seconds,
                        vdnn.forward_seconds + vdnn.backward_seconds,
                        1e-9 * vdnn.total_seconds);
            EXPECT_GE(vdnn.stall_seconds, -1e-12);
        }
    }
}

} // namespace
} // namespace cdma
