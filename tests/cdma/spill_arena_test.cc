/**
 * @file
 * Tests for the compressed spill arena: round-trip identity through
 * store/materialize and through the offloadInto/prefetch streaming
 * path (byte-identical to ParallelCompressor::compress across lane and
 * shard shapes, empty and single-window maps, a deterministic event
 * timeline), slot recycling across simulated iterations
 * (slab allocation must plateau after the first), high-water-mark
 * accounting, and ticket lifecycle.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cdma/transfer_engine.hh"
#include "common/rng.hh"
#include "compress/parallel.hh"

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
makeEngine(Algorithm algorithm = Algorithm::Zvc, unsigned lanes = 2)
{
    CdmaConfig config;
    config.compression.algorithm = algorithm;
    config.compression.lanes = lanes;
    config.transfer.timing_mode = TimingMode::Overlapped;
    return CdmaEngine(config);
}

TEST(SpillArena, StoreAndMaterializeRoundTripsEveryCodec)
{
    for (const Algorithm algorithm : kAllAlgorithms) {
        const CdmaEngine engine = makeEngine(algorithm);
        const size_t bytes =
            algorithm == Algorithm::Zlib ? 16384 + 5 : (1 << 18) + 37;
        const auto input = makeInput(0.5, bytes, 61);
        const CompressedBuffer compressed =
            engine.compressor().compress(input);

        SpillArena arena;
        const SpillTicket ticket = arena.store(compressed, 5);
        EXPECT_EQ(arena.originalBytes(ticket), input.size());
        EXPECT_EQ(arena.windowBytes(ticket), compressed.window_bytes);
        EXPECT_EQ(arena.wireBytes(ticket), compressed.effectiveBytes());
        EXPECT_EQ(arena.payloadBytes(ticket), compressed.payload.size());

        const CompressedBuffer back = arena.materialize(ticket);
        EXPECT_EQ(back.payload, compressed.payload);
        EXPECT_EQ(back.window_sizes, compressed.window_sizes);
        EXPECT_EQ(engine.compressor().decompress(back).value(), input)
            << algorithmName(algorithm);
        arena.release(ticket);
    }
}

TEST(SpillArena, OffloadIntoMatchesParallelCompress)
{
    // The arena holds exactly ParallelCompressor::compress's bytes
    // (materialize is the stitched view) whether shards outnumber lanes
    // or lanes outnumber shards; the prefetch restores the input and
    // mirrors the offload's shard train, and neither the bytes, the
    // train nor the modeled timing depend on lane count.
    struct Shape {
        unsigned lanes;
        uint64_t shard_bytes; // 0 = bandwidth-delay default
        size_t bytes;
    };
    const size_t big = (1 << 20) + 123;
    std::vector<SpilledOffload> spills;
    for (const Shape shape :
         {Shape{1, 0, big}, Shape{2, 0, big}, Shape{8, 0, big},
          Shape{8, 4096, big}, Shape{8, 4096, 3 * 4096}}) {
        const auto input = makeInput(0.4, shape.bytes, 71);
        CdmaConfig config;
        config.compression.lanes = shape.lanes;
        config.transfer.shard_bytes = shape.shard_bytes;
        config.transfer.timing_mode = TimingMode::Overlapped;
        const CdmaEngine engine(config);
        const TransferEngine transfers(engine);
        SpillArena arena;
        const SpilledOffload spilled =
            transfers.offloadInto(input, arena).value();
        const CompressedBuffer reference =
            engine.compressor().compress(input);
        const CompressedBuffer stitched = arena.materialize(spilled.ticket);
        EXPECT_EQ(stitched.original_bytes, reference.original_bytes);
        EXPECT_EQ(stitched.window_sizes, reference.window_sizes);
        EXPECT_EQ(stitched.payload, reference.payload);
        EXPECT_EQ(arena.wireBytes(spilled.ticket),
                  reference.effectiveBytes());
        EXPECT_EQ(arena.shardCount(spilled.ticket), spilled.shards.size());
        if (shape.shard_bytes == 4096) {
            EXPECT_EQ(spilled.shards.size(), reference.window_sizes.size());
        } else {
            EXPECT_GT(spilled.shards.size(), shape.lanes);
        }
        EXPECT_GT(spilled.timing.overlap_fraction, 0.0);

        const PrefetchResult restored =
            transfers.prefetch(arena, spilled.ticket).value();
        EXPECT_EQ(restored.data, input);
        ASSERT_EQ(restored.shards.size(), spilled.shards.size());
        for (size_t i = 0; i < restored.shards.size(); ++i) {
            EXPECT_EQ(restored.shards[i].raw_bytes,
                      spilled.shards[i].raw_bytes);
            EXPECT_EQ(restored.shards[i].wire_bytes,
                      spilled.shards[i].wire_bytes);
        }
        arena.release(spilled.ticket);
        if (shape.shard_bytes == 0)
            spills.push_back(spilled);
    }
    for (const SpilledOffload &spilled : spills) {
        ASSERT_EQ(spilled.shards.size(), spills[0].shards.size());
        for (size_t i = 0; i < spilled.shards.size(); ++i) {
            EXPECT_EQ(spilled.shards[i].wire_bytes,
                      spills[0].shards[i].wire_bytes);
        }
        EXPECT_DOUBLE_EQ(spilled.timing.overlapped_seconds,
                         spills[0].timing.overlapped_seconds);
    }
}

TEST(SpillArena, SingleWindowBufferSpills)
{
    const CdmaEngine engine = makeEngine(Algorithm::Zvc, 4);
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.5, 1000, 17);
    SpillArena arena;
    const SpilledOffload spilled =
        transfers.offloadInto(input, arena).value();
    const CompressedBuffer reference =
        engine.compressor().serial().compress(input);
    ASSERT_EQ(spilled.shards.size(), 1u);
    EXPECT_EQ(spilled.shards[0].raw_bytes, input.size());
    EXPECT_DOUBLE_EQ(spilled.timing.overlap_fraction, 0.0);
    EXPECT_EQ(arena.materialize(spilled.ticket).payload, reference.payload);

    const PrefetchResult restored =
        transfers.prefetch(arena, spilled.ticket).value();
    ASSERT_EQ(restored.shards.size(), 1u);
    EXPECT_EQ(restored.shards[0].wire_bytes, reference.effectiveBytes());
    EXPECT_DOUBLE_EQ(restored.timing.overlap_fraction, 0.0);
    EXPECT_EQ(restored.data, input);
    arena.release(spilled.ticket);
}

TEST(SpillArena, DeterministicEventTimeline)
{
    // Two round trips of the same map produce bit-identical bytes and
    // timing: event ordering in the pipeline model is deterministic
    // (FIFO tie-break), and shard completion order across lanes never
    // leaks into the result.
    const CdmaEngine engine = makeEngine(Algorithm::Zvc, 0); // all threads
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.5, (1 << 20) + 4096, 41);
    SpillArena arena;
    const SpilledOffload a = transfers.offloadInto(input, arena).value();
    const SpilledOffload b = transfers.offloadInto(input, arena).value();
    EXPECT_EQ(a.timing.overlapped_seconds, b.timing.overlapped_seconds);
    EXPECT_EQ(a.timing.compress_seconds, b.timing.compress_seconds);
    EXPECT_EQ(a.timing.wire_seconds, b.timing.wire_seconds);
    EXPECT_EQ(a.timing.overlap_fraction, b.timing.overlap_fraction);
    EXPECT_EQ(arena.materialize(a.ticket).payload,
              arena.materialize(b.ticket).payload);

    const PrefetchResult ra = transfers.prefetch(arena, a.ticket).value();
    const PrefetchResult rb = transfers.prefetch(arena, b.ticket).value();
    EXPECT_EQ(ra.timing.overlapped_seconds, rb.timing.overlapped_seconds);
    EXPECT_EQ(ra.timing.wire_seconds, rb.timing.wire_seconds);
    EXPECT_EQ(ra.timing.decompress_seconds, rb.timing.decompress_seconds);
    EXPECT_EQ(ra.data, rb.data);
    arena.release(a.ticket);
    arena.release(b.ticket);
}

TEST(SpillArena, SlotRecyclingPlateausAfterTheFirstIteration)
{
    // A simulated multi-layer training loop: iteration 1 bump-allocates
    // slabs; every later iteration must be served entirely from
    // recycled slots and recycled tickets.
    const CdmaEngine engine = makeEngine();
    const TransferEngine transfers(engine);
    SpillArena arena;

    std::vector<std::vector<uint8_t>> layers;
    for (int i = 0; i < 5; ++i)
        layers.push_back(makeInput(0.2 + 0.15 * i,
                                   (100 + 40 * i) * 1024 + 7,
                                   200 + i));

    uint64_t slabs_after_first = 0;
    for (int iteration = 0; iteration < 4; ++iteration) {
        std::vector<SpillTicket> tickets;
        for (const auto &layer : layers)
            tickets.push_back(
                transfers.offloadInto(layer, arena)->ticket);
        for (size_t i = tickets.size(); i-- > 0;) {
            const PrefetchResult restored =
                transfers.prefetch(arena, tickets[i]).value();
            EXPECT_EQ(restored.data, layers[i])
                << "iteration " << iteration << " layer " << i;
            arena.release(tickets[i]);
        }
        if (iteration == 0) {
            slabs_after_first = arena.stats().slab_allocations;
            EXPECT_GT(slabs_after_first, 0u);
        }
    }

    const SpillStats &stats = arena.stats();
    EXPECT_EQ(stats.slab_allocations, slabs_after_first)
        << "steady-state iterations must not allocate new slabs";
    EXPECT_GT(stats.reused_slots, 0u);
    EXPECT_EQ(stats.live_buffers, 0u);
    EXPECT_EQ(stats.live_payload_bytes, 0u);
    EXPECT_EQ(stats.live_slot_bytes, 0u);
    EXPECT_GT(stats.high_water_payload_bytes, 0u);
    EXPECT_GE(stats.high_water_slot_bytes,
              stats.high_water_payload_bytes);
}

TEST(SpillArena, HighWaterTracksConcurrentResidency)
{
    const CdmaEngine engine = makeEngine();
    const TransferEngine transfers(engine);
    SpillArena arena;
    const auto a = makeInput(0.5, 300 * 1024, 11);
    const auto b = makeInput(0.5, 300 * 1024, 13);

    const SpillTicket ta = transfers.offloadInto(a, arena)->ticket;
    const uint64_t one = arena.stats().live_payload_bytes;
    const SpillTicket tb = transfers.offloadInto(b, arena)->ticket;
    const uint64_t both = arena.stats().live_payload_bytes;
    EXPECT_GT(both, one);
    EXPECT_EQ(arena.stats().high_water_payload_bytes, both);

    // Releasing one then storing again must not raise the high water
    // past the two-buffer peak (slots are recycled, residency is the
    // same).
    arena.release(ta);
    const SpillTicket tc = transfers.offloadInto(a, arena)->ticket;
    EXPECT_EQ(arena.stats().high_water_payload_bytes, both);
    arena.release(tb);
    arena.release(tc);
    EXPECT_EQ(arena.stats().live_payload_bytes, 0u);
}

TEST(SpillArena, ShardViewsExposeTheStoredFraming)
{
    const CdmaEngine engine = makeEngine();
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.5, (1 << 19) + 37, 83);
    SpillArena arena;
    const SpilledOffload spilled = transfers.offloadInto(input, arena).value();
    const CompressedBuffer reference =
        engine.compressor().compress(input);

    uint64_t window_cursor = 0;
    uint64_t payload_cursor = 0;
    for (size_t s = 0; s < arena.shardCount(spilled.ticket); ++s) {
        const SpillShardView view = arena.shard(spilled.ticket, s);
        EXPECT_EQ(view.first_window, window_cursor);
        for (size_t w = 0; w < view.window_sizes.size(); ++w) {
            EXPECT_EQ(view.window_sizes[w],
                      reference.window_sizes[window_cursor + w]);
        }
        ASSERT_LE(payload_cursor + view.payload.size(),
                  reference.payload.size());
        EXPECT_EQ(0, std::memcmp(view.payload.data(),
                                 reference.payload.data() + payload_cursor,
                                 view.payload.size()));
        window_cursor += view.window_sizes.size();
        payload_cursor += view.payload.size();
    }
    EXPECT_EQ(window_cursor, reference.window_sizes.size());
    EXPECT_EQ(payload_cursor, reference.payload.size());
    arena.release(spilled.ticket);
}

TEST(SpillArena, EmptyBufferSpills)
{
    const CdmaEngine engine = makeEngine();
    const TransferEngine transfers(engine);
    SpillArena arena;
    const SpilledOffload spilled = transfers.offloadInto({}, arena).value();
    EXPECT_EQ(arena.shardCount(spilled.ticket), 0u);
    EXPECT_EQ(arena.originalBytes(spilled.ticket), 0u);
    EXPECT_EQ(spilled.timing.shard_count, 0u);
    EXPECT_DOUBLE_EQ(spilled.timing.overlapped_seconds, 0.0);
    const CompressedBuffer stitched = arena.materialize(spilled.ticket);
    EXPECT_EQ(stitched.original_bytes, 0u);
    EXPECT_TRUE(stitched.payload.empty());
    const PrefetchResult restored =
        transfers.prefetch(arena, spilled.ticket).value();
    EXPECT_TRUE(restored.data.empty());
    EXPECT_EQ(restored.timing.shard_count, 0u);
    EXPECT_DOUBLE_EQ(restored.timing.overlapped_seconds, 0.0);
    arena.release(spilled.ticket);
    EXPECT_EQ(arena.stats().live_buffers, 0u);
}

} // namespace
} // namespace cdma
