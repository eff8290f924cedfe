/**
 * @file
 * Tests for the double-buffered transfer pipelines in both directions:
 * the DES event timeline against the closed-form steady states and the
 * textbook two-stage recurrence, TransferEngine::closedForm pinned to
 * the DES at 1e-9 (empty, sub-shard, tail-shard and long trains at
 * staging depths 1/2/3), and the engine/vdnn/step-sim surfaces that
 * carry OffloadTiming and PrefetchTiming.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cdma/transfer_engine.hh"
#include "common/rng.hh"
#include "perf/step_sim.hh"
#include "vdnn/memory_manager.hh"

namespace cdma {
namespace {

constexpr double kEngineBw = 200e9; ///< COMP_BW, both engines
constexpr double kWireBw = 12.8e9;

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
makeEngine(unsigned lanes, uint64_t shard_bytes = 0,
           TimingMode mode = TimingMode::Overlapped)
{
    CdmaConfig config;
    config.compression.lanes = lanes;
    config.transfer.shard_bytes = shard_bytes;
    config.transfer.timing_mode = mode;
    return CdmaEngine(config);
}

/** The offload DES alone: the duplex pipeline with prefetch idle. */
OffloadTiming
offloadDes(const std::vector<ShardTransfer> &shards, unsigned buffers = 2,
           double engine_bw = kEngineBw, double wire_bw = kWireBw)
{
    return TransferEngine::pipelineTiming(shards, {}, engine_bw, wire_bw,
                                          engine_bw, buffers,
                                          DuplexMode::Half,
                                          LinkArbiter::RoundRobin)
        .offload;
}

/** The prefetch DES alone: the duplex pipeline with offload idle. */
PrefetchTiming
prefetchDes(const std::vector<ShardTransfer> &shards, unsigned buffers = 2,
            double engine_bw = kEngineBw, double wire_bw = kWireBw)
{
    return TransferEngine::pipelineTiming({}, shards, engine_bw, wire_bw,
                                          engine_bw, buffers,
                                          DuplexMode::Half,
                                          LinkArbiter::RoundRobin)
        .prefetch;
}

/**
 * Reference recurrence for a two-stage staging pipeline with
 * @p buffers staging buffers: both stages are serial, and shard k may
 * not enter stage one until shard k - buffers has left stage two.
 * Offload is (compress, wire); prefetch is (wire, expand).
 */
double
referenceMakespan(const std::vector<double> &stage1,
                  const std::vector<double> &stage2, unsigned buffers)
{
    const size_t n = stage1.size();
    std::vector<double> end1(n, 0.0), end2(n, 0.0);
    for (size_t k = 0; k < n; ++k) {
        double start = k > 0 ? end1[k - 1] : 0.0;
        if (k >= buffers)
            start = std::max(start, end2[k - buffers]);
        end1[k] = start + stage1[k];
        end2[k] = std::max(end1[k], k > 0 ? end2[k - 1] : 0.0) + stage2[k];
    }
    return n > 0 ? end2[n - 1] : 0.0;
}

TEST(PipelineTiming, ClosedFormSteadyStateWireBound)
{
    // Uniform shards, wire the slower stage (ZV-class ratio): the
    // offload costs one compression fill plus the wire at its full
    // rate, the prefetch the wire plus one trailing expansion,
    //   offload = c + n*w,  prefetch = n*w + d  ( = n*max + min ),
    // to 1e-9 relative error.
    const uint64_t raw = 1 << 20;
    const uint64_t wire_bytes = static_cast<uint64_t>(raw / 4.0);
    const size_t n = 16;
    const std::vector<ShardTransfer> shards(n, {raw, wire_bytes});

    const OffloadTiming off = offloadDes(shards);
    const PrefetchTiming pre = prefetchDes(shards);
    const double c = static_cast<double>(raw) / kEngineBw;
    const double w = static_cast<double>(wire_bytes) / kWireBw;
    ASSERT_GT(w, c); // wire-bound by construction
    const double nd = static_cast<double>(n);
    EXPECT_NEAR(off.overlapped_seconds, c + nd * w, 1e-9 * (c + nd * w));
    EXPECT_NEAR(pre.overlapped_seconds, nd * w + c, 1e-9 * (c + nd * w));
    EXPECT_NEAR(off.compress_seconds, nd * c, 1e-9 * nd * c);
    EXPECT_NEAR(off.wire_seconds, nd * w, 1e-9 * nd * w);
    EXPECT_NEAR(pre.decompress_seconds, nd * c, 1e-9 * nd * c);
    EXPECT_NEAR(pre.wire_seconds, nd * w, 1e-9 * nd * w);
    // All but the pipeline fill of the engine leg hides under the wire.
    EXPECT_NEAR(off.overlap_fraction, (nd - 1) / nd, 1e-9);
    EXPECT_NEAR(pre.overlap_fraction, (nd - 1) / nd, 1e-9);
}

TEST(PipelineTiming, ClosedFormSteadyStateCompressBound)
{
    // The engine the slower stage (a fetch-capped layer): the wire
    // drains behind compression on the way out and feeds a saturated
    // expansion engine on the way back,
    //   offload = n*c + w,  prefetch = w + n*d.
    const uint64_t raw = 1 << 20;
    const uint64_t wire_bytes = raw / 64; // 64x ratio: way past the cap
    const size_t n = 12;
    const std::vector<ShardTransfer> shards(n, {raw, wire_bytes});

    const OffloadTiming off = offloadDes(shards);
    const PrefetchTiming pre = prefetchDes(shards);
    const double c = static_cast<double>(raw) / kEngineBw;
    const double w = static_cast<double>(wire_bytes) / kWireBw;
    ASSERT_GT(c, w); // engine-bound by construction
    const double nd = static_cast<double>(n);
    EXPECT_NEAR(off.overlapped_seconds, nd * c + w, 1e-9 * (nd * c + w));
    EXPECT_NEAR(pre.overlapped_seconds, w + nd * c, 1e-9 * (nd * c + w));
    EXPECT_NEAR(off.overlap_fraction, (nd - 1) / nd, 1e-9);
    EXPECT_NEAR(pre.overlap_fraction, (nd - 1) / nd, 1e-9);
}

TEST(PipelineTiming, MatchesReferenceRecurrenceOnMixedShards)
{
    // Non-uniform shard trains and several staging depths: the DES must
    // reproduce the textbook recurrence exactly in both directions.
    Rng rng(404);
    std::vector<ShardTransfer> shards;
    std::vector<double> engine, wire;
    for (int i = 0; i < 23; ++i) {
        const uint64_t raw = 4096 + 4096 * rng.uniformInt(16);
        shards.push_back({raw, raw / (1 + rng.uniformInt(8))});
        engine.push_back(static_cast<double>(raw) / kEngineBw);
        wire.push_back(static_cast<double>(shards.back().wire_bytes) /
                       kWireBw);
    }
    for (unsigned buffers : {1u, 2u, 3u, 5u}) {
        const OffloadTiming off = offloadDes(shards, buffers);
        const PrefetchTiming pre = prefetchDes(shards, buffers);
        const double off_ref = referenceMakespan(engine, wire, buffers);
        const double pre_ref = referenceMakespan(wire, engine, buffers);
        EXPECT_NEAR(off.overlapped_seconds, off_ref, 1e-9 * off_ref)
            << buffers << " staging buffers";
        EXPECT_NEAR(pre.overlapped_seconds, pre_ref, 1e-9 * pre_ref)
            << buffers << " staging buffers";
        // Overlap never beats the slower leg nor loses to serializing.
        EXPECT_LE(off.overlapped_seconds, off.serializedSeconds() + 1e-12);
        EXPECT_GE(off.overlapped_seconds,
                  std::max(off.compress_seconds, off.wire_seconds) -
                      1e-12);
        EXPECT_LE(pre.overlapped_seconds, pre.serializedSeconds() + 1e-12);
        EXPECT_GE(pre.overlapped_seconds,
                  std::max(pre.wire_seconds, pre.decompress_seconds) -
                      1e-12);
    }
}

TEST(PipelineTiming, SingleShardHasNoOverlap)
{
    const std::vector<ShardTransfer> shards = {{4096, 1024}};
    const OffloadTiming off = offloadDes(shards);
    const PrefetchTiming pre = prefetchDes(shards);
    EXPECT_DOUBLE_EQ(off.overlapped_seconds, off.serializedSeconds());
    EXPECT_DOUBLE_EQ(pre.overlapped_seconds, pre.serializedSeconds());
    EXPECT_DOUBLE_EQ(off.overlap_fraction, 0.0);
    EXPECT_DOUBLE_EQ(pre.overlap_fraction, 0.0);
    EXPECT_EQ(off.shard_count, 1u);
    EXPECT_EQ(pre.shard_count, 1u);
}

TEST(TransferEngine, ClosedFormMatchesDesReference)
{
    // closedForm is allocation-free (n*max + min plus the trailing
    // partial shard, stages swapped between the directions); the DES
    // (pipelineTiming) stays the reference. Pin equality across transfer
    // sizes that exercise every branch — empty, sub-shard, exact
    // multiples, long trains, partial tails — ratios on both sides of
    // the fetch cap, and staging depths including the degenerate
    // single-buffer pipeline.
    for (const unsigned buffers : {1u, 2u, 3u}) {
        for (const uint64_t shard_bytes : {0ull, 4096ull, 3 * 4096ull}) {
            CdmaConfig config;
            config.transfer.shard_bytes = shard_bytes;
            config.transfer.staging_buffers = buffers;
            config.transfer.timing_mode = TimingMode::Overlapped;
            const CdmaEngine engine(config);
            const TransferEngine transfers(engine);
            const uint64_t shard_raw =
                transfers.shardWindows() * config.compression.window_bytes;

            for (const double ratio : {1.0, 2.5, 7.3, 12.5, 40.0}) {
                for (const uint64_t raw :
                     {uint64_t{0}, uint64_t{1}, shard_raw / 2, shard_raw,
                      shard_raw + 1, 3 * shard_raw,
                      7 * shard_raw + shard_raw / 3,
                      64 * shard_raw + 4097}) {
                    // The exact shard train the DES would replay.
                    std::vector<ShardTransfer> shards;
                    for (uint64_t left = raw; left > 0;) {
                        const uint64_t r = std::min(left, shard_raw);
                        shards.push_back(
                            {r, static_cast<uint64_t>(
                                    static_cast<double>(r) / ratio)});
                        left -= r;
                    }
                    const OffloadTiming off = offloadDes(
                        shards, buffers, config.gpu.comp_bandwidth,
                        config.gpu.pcie_effective_bandwidth);
                    const PrefetchTiming pre = prefetchDes(
                        shards, buffers, config.gpu.comp_bandwidth,
                        config.gpu.pcie_effective_bandwidth);
                    const DuplexTiming closed =
                        transfers.closedForm(raw, ratio);
                    const std::string where = "raw=" +
                        std::to_string(raw) + " ratio=" +
                        std::to_string(ratio) + " buffers=" +
                        std::to_string(buffers) + " shard_raw=" +
                        std::to_string(shard_raw);

                    EXPECT_EQ(closed.offload.shard_count, off.shard_count)
                        << where;
                    EXPECT_NEAR(closed.offload.compress_seconds,
                                off.compress_seconds,
                                1e-9 * off.compress_seconds);
                    EXPECT_NEAR(closed.offload.wire_seconds,
                                off.wire_seconds, 1e-9 * off.wire_seconds);
                    EXPECT_NEAR(closed.offload.overlapped_seconds,
                                off.overlapped_seconds,
                                1e-9 * off.overlapped_seconds)
                        << where;
                    EXPECT_NEAR(closed.offload.overlap_fraction,
                                off.overlap_fraction, 1e-9);

                    EXPECT_EQ(closed.prefetch.shard_count, pre.shard_count)
                        << where;
                    EXPECT_NEAR(closed.prefetch.wire_seconds,
                                pre.wire_seconds, 1e-9 * pre.wire_seconds);
                    EXPECT_NEAR(closed.prefetch.decompress_seconds,
                                pre.decompress_seconds,
                                1e-9 * pre.decompress_seconds);
                    EXPECT_NEAR(closed.prefetch.overlapped_seconds,
                                pre.overlapped_seconds,
                                1e-9 * pre.overlapped_seconds)
                        << where;
                    EXPECT_NEAR(closed.prefetch.overlap_fraction,
                                pre.overlap_fraction, 1e-9);

                    // Each direction alone: the Full-duplex race.
                    const double race = std::max(off.overlapped_seconds,
                                                 pre.overlapped_seconds);
                    EXPECT_NEAR(closed.makespan_seconds, race, 1e-9 * race);
                    EXPECT_DOUBLE_EQ(closed.contentionSeconds(), 0.0);
                }
            }
        }
    }
}

TEST(CdmaEngine, OverlappedModeTimesPlansThroughThePipeline)
{
    const CdmaEngine overlapped = makeEngine(2);
    const CdmaEngine free_engine =
        makeEngine(2, 0, TimingMode::CompressionFree);

    const uint64_t raw = 64ull << 20;
    const TransferPlan a = overlapped.planFromRatio("map", raw, 2.5);
    const TransferPlan b = free_engine.planFromRatio("map", raw, 2.5);

    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_DOUBLE_EQ(a.seconds, a.offload.overlapped_seconds);
    EXPECT_GT(a.offload.shard_count, 1u);
    EXPECT_GT(a.offload.overlap_fraction, 0.0);
    EXPECT_LE(a.offload.overlap_fraction, 1.0);
    // CompressionFree keeps the seed model: no pipeline breakdown.
    EXPECT_EQ(b.offload.shard_count, 0u);
    EXPECT_DOUBLE_EQ(b.offload.overlapped_seconds, 0.0);
    // Overlapped includes the compression fill, so it can only be
    // slower than a model that prices compression at zero — and by at
    // most the compression leg.
    EXPECT_GE(a.seconds, b.seconds);
    EXPECT_LE(a.seconds, b.seconds + a.offload.compress_seconds + 1e-12);

    // The engine's plan must agree with the closed form.
    const DuplexTiming direct =
        TransferEngine(overlapped).closedForm(raw, 2.5);
    EXPECT_DOUBLE_EQ(a.offload.overlapped_seconds,
                     direct.offload.overlapped_seconds);
}

TEST(TransferEngine, ClosedFormPricesTheConfiguredRoute)
{
    // A configured two-node graph at half the GpuSpec link rate: the
    // closed form, and the fault-free planFromRatio built on it, must
    // price the graph's edge, exactly as duplexTiming replays it.
    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    const auto graph =
        Topology::pcieLink(config.gpu.pcie_effective_bandwidth / 2,
                           config.transfer.duplex_mode,
                           config.transfer.link_arbiter);
    config.topology.graph = graph;
    config.topology.gpu_node = graph->firstNode(NodeKind::Gpu);
    config.topology.host_node = graph->firstNode(NodeKind::HostDram);
    const CdmaEngine engine(config);
    const TransferEngine transfers(engine);

    const uint64_t raw = 64ull << 20;
    const std::vector<ShardTransfer> train = transfers.shardTrain(raw, 2.5);
    const OffloadTiming off = transfers.duplexTiming(train, {}).offload;
    const PrefetchTiming pre = transfers.duplexTiming({}, train).prefetch;
    const DuplexTiming closed = transfers.closedForm(raw, 2.5);
    EXPECT_NEAR(closed.offload.wire_seconds, off.wire_seconds,
                1e-9 * off.wire_seconds);
    EXPECT_NEAR(closed.offload.overlapped_seconds, off.overlapped_seconds,
                1e-9 * off.overlapped_seconds);
    EXPECT_NEAR(closed.prefetch.wire_seconds, pre.wire_seconds,
                1e-9 * pre.wire_seconds);
    EXPECT_NEAR(closed.prefetch.overlapped_seconds, pre.overlapped_seconds,
                1e-9 * pre.overlapped_seconds);

    const TransferPlan plan = engine.planFromRatio("map", raw, 2.5);
    EXPECT_NEAR(plan.offload.overlapped_seconds, off.overlapped_seconds,
                1e-9 * off.overlapped_seconds);
    EXPECT_NEAR(plan.prefetch.overlapped_seconds, pre.overlapped_seconds,
                1e-9 * pre.overlapped_seconds);

    // The half-rate edge is the bottleneck: the wire leg takes twice
    // what the same map takes on the GpuSpec link.
    CdmaConfig direct;
    direct.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine direct_engine(direct);
    const DuplexTiming full_rate =
        TransferEngine(direct_engine).closedForm(raw, 2.5);
    EXPECT_NEAR(closed.offload.wire_seconds,
                2 * full_rate.offload.wire_seconds,
                1e-9 * closed.offload.wire_seconds);
}

TEST(CdmaEngine, DisabledCompressionBypassesThePipelineModel)
{
    // No cDMA engine in the path means no compression-fetch leg: a
    // disabled-compression engine must keep plain DMA occupancy even in
    // Overlapped mode.
    CdmaConfig config;
    config.compression.enabled = false;
    config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine engine(config);
    const uint64_t raw = 32ull << 20;
    const TransferPlan plan = engine.planFromRatio("raw", raw, 3.0);
    EXPECT_EQ(plan.wire_bytes, raw);
    EXPECT_DOUBLE_EQ(plan.seconds, engine.transferSeconds(raw, 1.0));
    EXPECT_EQ(plan.offload.shard_count, 0u);
}

TEST(CdmaEngine, OverlappedPlanTransferUsesMeasuredShardSizes)
{
    // planTransfer times exactly the shard train the arena flow stores:
    // both legs equal the DES over offloadInto's measured shards.
    const CdmaEngine engine = makeEngine(4);
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.25, (1 << 20), 47);
    const TransferPlan plan = engine.planTransfer("real", input);
    const CompressedBuffer reference =
        engine.compressor().serial().compress(input);
    EXPECT_EQ(plan.wire_bytes, reference.effectiveBytes());
    EXPECT_DOUBLE_EQ(plan.ratio, reference.effectiveRatio());
    EXPECT_DOUBLE_EQ(plan.seconds, plan.offload.overlapped_seconds);
    EXPECT_GT(plan.offload.overlap_fraction, 0.0);

    SpillArena arena;
    const SpilledOffload spilled =
        transfers.offloadInto(input, arena).value();
    EXPECT_EQ(arena.wireBytes(spilled.ticket), plan.wire_bytes);
    const OffloadTiming off =
        transfers.duplexTiming(spilled.shards, {}).offload;
    const PrefetchTiming pre =
        transfers.duplexTiming({}, spilled.shards).prefetch;
    EXPECT_EQ(plan.offload.shard_count, off.shard_count);
    EXPECT_DOUBLE_EQ(plan.offload.overlapped_seconds,
                     off.overlapped_seconds);
    EXPECT_DOUBLE_EQ(plan.offload.compress_seconds, off.compress_seconds);
    EXPECT_DOUBLE_EQ(plan.offload.wire_seconds, off.wire_seconds);
    EXPECT_DOUBLE_EQ(plan.prefetch.overlapped_seconds,
                     pre.overlapped_seconds);
    EXPECT_DOUBLE_EQ(plan.prefetch.decompress_seconds,
                     pre.decompress_seconds);
    arena.release(spilled.ticket);
}

TEST(CdmaEngine, OverlappedPlansCarryBothPipelineDirections)
{
    const CdmaEngine engine = makeEngine(2);
    // Exact multiple of the staging shard: a uniform train, where the
    // mirrored pipelines' makespans coincide exactly (a partial tail
    // breaks the symmetry by one sub-shard fill).
    const uint64_t shard_raw = TransferEngine(engine).shardWindows() *
        engine.config().compression.window_bytes;
    const uint64_t raw = 96 * shard_raw;
    const TransferPlan plan = engine.planFromRatio("map", raw, 2.5);

    EXPECT_GT(plan.prefetch.shard_count, 1u);
    EXPECT_EQ(plan.prefetch.shard_count, plan.offload.shard_count);
    EXPECT_GT(plan.prefetch.overlap_fraction, 0.0);
    EXPECT_LE(plan.prefetch.overlap_fraction, 1.0);
    // Same shards, mirrored stages: leg totals swap roles.
    EXPECT_NEAR(plan.prefetch.wire_seconds, plan.offload.wire_seconds,
                1e-12);
    EXPECT_NEAR(plan.prefetch.decompress_seconds,
                plan.offload.compress_seconds, 1e-12);
    EXPECT_NEAR(plan.prefetch.overlapped_seconds,
                plan.offload.overlapped_seconds,
                1e-9 * plan.offload.overlapped_seconds);

    // The engine's plan must agree with the closed form.
    const DuplexTiming direct = TransferEngine(engine).closedForm(raw, 2.5);
    EXPECT_DOUBLE_EQ(plan.prefetch.overlapped_seconds,
                     direct.prefetch.overlapped_seconds);

    // CompressionFree keeps the seed model: no prefetch breakdown.
    const CdmaEngine free_engine =
        makeEngine(2, 0, TimingMode::CompressionFree);
    const TransferPlan free_plan =
        free_engine.planFromRatio("map", raw, 2.5);
    EXPECT_EQ(free_plan.prefetch.shard_count, 0u);
    EXPECT_DOUBLE_EQ(free_plan.prefetch.overlapped_seconds, 0.0);

    // Disabled compression bypasses both pipeline models.
    CdmaConfig disabled;
    disabled.compression.enabled = false;
    disabled.transfer.timing_mode = TimingMode::Overlapped;
    const TransferPlan raw_plan =
        CdmaEngine(disabled).planFromRatio("raw", raw, 3.0);
    EXPECT_EQ(raw_plan.prefetch.shard_count, 0u);
}

TEST(VdnnMemoryManager, PlannedOffloadsCarryOverlapTiming)
{
    const NetworkDesc net = allNetworkDescs().front();
    const VdnnMemoryManager manager(net, 16);
    const CdmaEngine engine = makeEngine(1);

    std::vector<double> ratios(net.layers.size(), 2.0);
    const auto plans = manager.plannedOffloads(engine, ratios);
    ASSERT_EQ(plans.size(), manager.offloadSchedule().size());
    for (size_t k = 0; k < plans.size(); ++k) {
        EXPECT_EQ(plans[k].raw_bytes, manager.offloadSchedule()[k].bytes);
        EXPECT_GT(plans[k].offload.shard_count, 0u);
        EXPECT_DOUBLE_EQ(plans[k].seconds,
                         plans[k].offload.overlapped_seconds);
    }
    // Row 0 carries the raw image batch: never compressed.
    EXPECT_DOUBLE_EQ(plans[0].ratio, 1.0);

    // The raw-DMA (vDNN baseline) flavour bypasses the pipeline model.
    const auto raw_plans =
        manager.plannedOffloads(engine, {}, /*raw_dma=*/true);
    for (const auto &plan : raw_plans) {
        EXPECT_EQ(plan.wire_bytes, plan.raw_bytes);
        EXPECT_EQ(plan.offload.shard_count, 0u);
    }

    // Prefetches are the offloads reversed.
    const auto prefetches = manager.plannedPrefetches(engine, ratios);
    ASSERT_EQ(prefetches.size(), plans.size());
    EXPECT_EQ(prefetches.front().label, plans.back().label);
    EXPECT_EQ(prefetches.back().label, plans.front().label);

    // Staging buffers show up in the engine-aware footprint.
    const MemoryFootprint fp = manager.footprint(engine);
    EXPECT_EQ(fp.staging_bytes, 2 * TransferEngine(engine).shardWindows() *
                                    engine.config().compression.window_bytes);
    EXPECT_EQ(fp.vdnn_peak,
              manager.footprint().vdnn_peak + fp.staging_bytes);
}

TEST(VdnnMemoryManager, PlannedPrefetchesUseThePrefetchPipeline)
{
    const NetworkDesc net = allNetworkDescs().front();
    const VdnnMemoryManager manager(net, 16);
    const CdmaEngine engine = makeEngine(1);

    std::vector<double> ratios(net.layers.size(), 2.0);
    const auto offloads = manager.plannedOffloads(engine, ratios);
    const auto prefetches = manager.plannedPrefetches(engine, ratios);
    ASSERT_EQ(prefetches.size(), offloads.size());
    for (size_t k = 0; k < prefetches.size(); ++k) {
        // Reverse order, retimed to the prefetch makespan.
        const TransferPlan &off = offloads[offloads.size() - 1 - k];
        const TransferPlan &pre = prefetches[k];
        EXPECT_EQ(pre.label, off.label);
        EXPECT_GT(pre.prefetch.shard_count, 0u);
        EXPECT_DOUBLE_EQ(pre.seconds, pre.prefetch.overlapped_seconds);
    }

    // The raw-DMA (vDNN baseline) flavour keeps plain occupancy.
    const auto raw_prefetches =
        manager.plannedPrefetches(engine, {}, /*raw_dma=*/true);
    for (const auto &plan : raw_prefetches) {
        EXPECT_EQ(plan.prefetch.shard_count, 0u);
        EXPECT_DOUBLE_EQ(plan.seconds,
                         engine.transferSeconds(plan.raw_bytes, 1.0));
    }
}

TEST(StepSimulator, BackwardLegWaitsOnThePrefetchPipeline)
{
    const NetworkDesc net = allNetworkDescs().front();
    const VdnnMemoryManager manager(net, 16);
    PerfModel perf;

    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine engine(config);
    const StepSimulator sim(manager, engine, perf, CudnnVersion::V5);

    std::vector<double> ratios(net.layers.size(), 2.0);
    const StepResult result = sim.run(StepMode::Cdma, ratios);
    bool saw_prefetch = false;
    for (const auto &layer : result.layers) {
        if (layer.offload.shard_count == 0)
            continue;
        saw_prefetch = true;
        EXPECT_GT(layer.prefetch.shard_count, 0u) << layer.label;
        EXPECT_DOUBLE_EQ(layer.prefetch_seconds,
                         layer.prefetch.overlapped_seconds)
            << layer.label;
    }
    EXPECT_TRUE(saw_prefetch);

    // vDNN mode (raw DMA) prices both directions identically.
    const StepResult vdnn = sim.run(StepMode::Vdnn);
    for (const auto &layer : vdnn.layers) {
        EXPECT_EQ(layer.prefetch.shard_count, 0u);
        EXPECT_DOUBLE_EQ(layer.prefetch_seconds, layer.offload_seconds);
    }
}

} // namespace
} // namespace cdma
