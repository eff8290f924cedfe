/**
 * @file
 * Differential tests for the prefetch-side (decompression) kernel ops
 * and their codec routing, mirroring tests/compress/kernels_test.cc for
 * the compression direction: op-level equivalence of every supported
 * backend against the scalar reference (zvcExpandWindow mask scatter
 * and fault reporting, zeroFillBytes run reconstruction),
 * byte-identity of decompressed
 * output across backends for all three codecs — densities, odd sizes,
 * sub-word tails, 1/2/8 lanes — and the in-order shard-streaming
 * decompression drain.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compress/compressor.hh"
#include "compress/kernels/kernels.hh"
#include "compress/parallel.hh"
#include "compress/zvc.hh"

namespace cdma {
namespace {

/** Activation-like fp32 words at the given density, any byte length. */
std::vector<uint8_t>
makeWords(double density, size_t bytes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> input(bytes, 0);
    const size_t words = bytes / 4;
    for (size_t i = 0; i < words; ++i) {
        if (density > 0.0 && rng.bernoulli(density)) {
            const float value =
                0.5f + static_cast<float>(std::abs(rng.normal()));
            std::memcpy(input.data() + i * 4, &value, 4);
        }
    }
    for (size_t i = words * 4; i < bytes; ++i)
        input[i] = static_cast<uint8_t>(rng.uniformInt(256));
    return input;
}

class DecompressKernelOpEquivalence : public ::testing::Test
{
  protected:
    /** Every non-scalar backend (scalar is the reference). */
    std::vector<const KernelOps *> others() const
    {
        std::vector<const KernelOps *> result;
        for (const KernelOps *ops : supportedKernels()) {
            if (ops != &scalarKernels())
                result.push_back(ops);
        }
        return result;
    }
};

/** Window sizes in words: full groups, every short-group residue class. */
constexpr size_t kWindowWords[] = {1,  2,  7,   8,   9,   15,  16,  17,
                                   24, 31, 32,  33,  47,  48,  63,  64,
                                   65, 100, 127, 128, 129, 255, 511, 1024};

/** @p input compressed by the scalar reference, right-sized. */
std::vector<uint8_t>
compressReference(const std::vector<uint8_t> &input)
{
    std::vector<uint8_t> packed(
        ZvcCompressor().compressedBound(input.size()));
    packed.resize(scalarKernels().zvcCompressWindow(
        input.data(), input.size(), packed.data()));
    return packed;
}

TEST_F(DecompressKernelOpEquivalence, ZvcExpandWindowInvertsCompress)
{
    // Compress with the scalar reference, then expand with every
    // backend: the output must reproduce the original window exactly
    // (sub-word tail included) and consume the whole payload.
    for (const KernelOps *ops : supportedKernels()) {
        for (const double density : {0.0, 0.1, 0.5, 0.9, 1.0}) {
            for (const size_t words : kWindowWords) {
                for (const size_t tail : {0u, 2u, 3u}) {
                    const size_t bytes = words * 4 + tail;
                    const auto input =
                        makeWords(density, bytes, 301 + bytes);
                    // The payload the expand op may read is exactly the
                    // stream: a right-sized copy puts any over-read
                    // outside the allocation (ASan job).
                    const auto payload = compressReference(input);
                    std::vector<uint8_t> out(bytes + 64, 0xEE);
                    const ZvcExpandResult result = ops->zvcExpandWindow(
                        payload.data(), payload.size(), bytes, out.data());
                    EXPECT_EQ(result, (ZvcExpandResult{
                                          ZvcExpandResult::Fault::None,
                                          payload.size(), 0}))
                        << ops->name << " words=" << words
                        << " density=" << density;
                    ASSERT_EQ(0, std::memcmp(out.data(), input.data(),
                                             bytes))
                        << ops->name << " words=" << words
                        << " tail=" << tail << " density=" << density;
                    // No write past the window.
                    for (size_t i = bytes; i < out.size(); ++i) {
                        ASSERT_EQ(out[i], 0xEE)
                            << ops->name << " words=" << words
                            << " i=" << i;
                    }
                }
            }
        }
    }
}

TEST_F(DecompressKernelOpEquivalence, ZvcExpandWindowSparsePatterns)
{
    // Directed masks per group: empty, full, single bits at the edges,
    // random patterns over every sub-block boundary — including stray
    // bits above a short last group, which every backend must ignore
    // the same way (the surplus words then read as trailing bytes).
    Rng rng(47);
    for (const KernelOps *ops : supportedKernels()) {
        for (int trial = 0; trial < 300; ++trial) {
            const size_t words = 1 + rng.uniformInt(trial < 150 ? 32 : 300);
            std::vector<uint8_t> payload;
            for (size_t w = 0; w < words; w += 32) {
                const auto group =
                    static_cast<uint32_t>(std::min<size_t>(32, words - w));
                const uint32_t full =
                    group == 32 ? 0xFFFFFFFFu : (1u << group) - 1;
                uint32_t mask;
                switch ((trial + w / 32) % 5) {
                  case 0: mask = 0; break;
                  case 1: mask = full; break;
                  case 2: mask = 1u; break;
                  case 3: mask = 1u << (group - 1); break;
                  default:
                    mask = static_cast<uint32_t>(rng.uniformInt(1u << 16)) |
                        (static_cast<uint32_t>(rng.uniformInt(1u << 16))
                         << 16);
                    break;
                }
                if (trial % 7 != 0)
                    mask &= full;
                const uint8_t *bytes =
                    reinterpret_cast<const uint8_t *>(&mask);
                payload.insert(payload.end(), bytes, bytes + 4);
                for (int i = 0; i < 4 * std::popcount(mask); ++i) {
                    payload.push_back(
                        static_cast<uint8_t>(1 + rng.uniformInt(255)));
                }
            }

            std::vector<uint8_t> expect(words * 4 + 8, 0xCC);
            std::vector<uint8_t> got(words * 4 + 8, 0xCC);
            const ZvcExpandResult result_ref =
                scalarKernels().zvcExpandWindow(
                    payload.data(), payload.size(), words * 4,
                    expect.data());
            const ZvcExpandResult result = ops->zvcExpandWindow(
                payload.data(), payload.size(), words * 4, got.data());
            EXPECT_EQ(result, result_ref)
                << ops->name << " trial " << trial;
            if (result_ref.fault == ZvcExpandResult::Fault::None) {
                ASSERT_EQ(expect, got) << ops->name << " trial " << trial
                                       << " words=" << words;
            }
            for (size_t i = words * 4; i < got.size(); ++i)
                ASSERT_EQ(got[i], 0xCC) << ops->name << " trial " << trial;
        }
    }
}

TEST_F(DecompressKernelOpEquivalence, ZvcExpandWindowFaultsMatchScalar)
{
    // A payload cut at every byte offset, or carrying trailing bytes:
    // every backend reports scalar's fault at scalar's offset (so the
    // codec returns the same StatusCode and message), never reads past
    // the right-sized payload (ASan job) and never writes past the
    // window.
    const KernelOps &ref = scalarKernels();
    const ZvcCompressor reference_codec(4096, &ref);
    for (const KernelOps *ops : supportedKernels()) {
        const ZvcCompressor codec(4096, ops);
        for (const double density : {0.0, 0.5, 1.0}) {
            for (const size_t words : {1u, 9u, 31u, 32u, 33u, 100u, 1024u}) {
                for (const size_t tail : {0u, 3u}) {
                    const size_t bytes = words * 4 + tail;
                    const auto input =
                        makeWords(density, bytes, 501 + bytes);
                    const auto stream = compressReference(input);
                    std::vector<std::vector<uint8_t>> payloads;
                    for (size_t cut = 0; cut < stream.size(); ++cut)
                        payloads.emplace_back(stream.begin(),
                                              stream.begin() + cut);
                    for (const size_t extra : {1u, 4u, 5u}) {
                        payloads.push_back(stream);
                        payloads.back().resize(stream.size() + extra, 0x5A);
                    }
                    for (const auto &payload : payloads) {
                        std::vector<uint8_t> want(bytes + 64, 0xEE);
                        std::vector<uint8_t> got(bytes + 64, 0xEE);
                        const ZvcExpandResult expect = ref.zvcExpandWindow(
                            payload.data(), payload.size(), bytes,
                            want.data());
                        const ZvcExpandResult result = ops->zvcExpandWindow(
                            payload.data(), payload.size(), bytes,
                            got.data());
                        ASSERT_NE(expect.fault, ZvcExpandResult::Fault::None)
                            << "payload " << payload.size() << "/"
                            << stream.size();
                        ASSERT_EQ(result, expect)
                            << ops->name << " words=" << words
                            << " payload " << payload.size() << "/"
                            << stream.size();
                        for (size_t i = bytes; i < got.size(); ++i) {
                            ASSERT_EQ(got[i], 0xEE)
                                << ops->name << " wrote past the window"
                                << " words=" << words << " payload "
                                << payload.size();
                        }
                        const Status status_ref =
                            reference_codec.decompressWindowInto(
                                payload, bytes, want.data());
                        const Status status = codec.decompressWindowInto(
                            payload, bytes, got.data());
                        ASSERT_EQ(status.code(), status_ref.code());
                        ASSERT_EQ(status.toString(), status_ref.toString());
                    }
                }
            }
        }
    }
}

TEST_F(DecompressKernelOpEquivalence, ZeroFillBytes)
{
    for (const KernelOps *ops : supportedKernels()) {
        for (const size_t n : {0u, 1u, 3u, 31u, 32u, 63u, 64u, 65u,
                               127u, 128u, 513u}) {
            std::vector<uint8_t> dst(n + 8, 0xEE);
            ops->zeroFillBytes(dst.data(), n);
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(dst[i], 0) << ops->name << " n=" << n;
            // No overwrite past n.
            for (size_t i = n; i < dst.size(); ++i)
                ASSERT_EQ(dst[i], 0xEE) << ops->name << " n=" << n;
        }
    }
}

TEST(DecompressCodecEquivalence, OutputIsByteIdenticalPerBackend)
{
    // The acceptance property for the prefetch leg: for all three
    // codecs, decompressing any backend's payload with any backend
    // reproduces the original input exactly — across densities, odd
    // sizes and sub-word tails.
    const std::vector<size_t> sizes = {0,    1,    3,    4,     5,
                                       127,  128,  4095, 4096,  4097,
                                       8195, 12288, (1u << 16) + 5};
    for (const Algorithm algorithm : kAllAlgorithms) {
        const auto reference =
            makeCompressor(algorithm, 4096, &scalarKernels());
        for (const KernelOps *ops : supportedKernels()) {
            const auto codec = makeCompressor(algorithm, 4096, ops);
            for (const double density : {0.0, 0.1, 0.5, 0.9, 1.0}) {
                for (const size_t bytes : sizes) {
                    // DEFLATE is slow; cap its sweep to keep the suite
                    // quick (tails/odd sizes stay covered).
                    if (algorithm == Algorithm::Zlib && bytes > 8195)
                        continue;
                    const auto input = makeWords(
                        density, bytes, 777 + bytes);
                    const CompressedBuffer compressed =
                        reference->compress(input);
                    ASSERT_EQ(codec->decompress(compressed).value(), input)
                        << codec->name() << " " << ops->name
                        << " bytes=" << bytes << " density=" << density;
                    // And the cross direction: backend-compressed,
                    // scalar-decompressed (streams are byte-identical,
                    // so this guards the packer too).
                    const CompressedBuffer own = codec->compress(input);
                    ASSERT_EQ(reference->decompress(own).value(), input)
                        << codec->name() << " " << ops->name
                        << " bytes=" << bytes << " density=" << density;
                }
            }
        }
    }
}

TEST(DecompressCodecEquivalence, LaneFanOutSharesTheBackendDecision)
{
    // 1/2/8 lanes with an explicitly forced backend: parallel
    // decompression must inherit the codec's dispatch decision and
    // reproduce the input whatever the lane count.
    const auto input = makeWords(0.5, (1 << 18) + 37, 99);
    for (const Algorithm algorithm : {Algorithm::Zvc, Algorithm::Rle}) {
        const auto reference =
            makeCompressor(algorithm, 4096, &scalarKernels());
        const CompressedBuffer compressed = reference->compress(input);
        for (const KernelOps *ops : supportedKernels()) {
            for (const unsigned lanes : {1u, 2u, 8u}) {
                const ParallelCompressor parallel(algorithm, 4096, lanes,
                                                  ops);
                ASSERT_EQ(parallel.decompress(compressed).value(), input)
                    << algorithmName(algorithm) << " " << ops->name
                    << " lanes=" << lanes;
            }
        }
    }
}

TEST(DecompressShards, StreamArrivesInOrderAndReconstructsExactly)
{
    const auto input = makeWords(0.5, (1 << 18) + 37, 43);
    const uint64_t windows_per_shard = 5;
    for (unsigned lanes : {1u, 2u, 8u}) {
        const ParallelCompressor compressor(Algorithm::Zvc, 4096, lanes);
        const CompressedBuffer compressed = compressor.compress(input);
        ByteVec out(input.size());
        uint64_t expected_index = 0;
        uint64_t raw_total = 0, wire_total = 0;
        const Status status = compressor.decompressShards(
            compressed, windows_per_shard, out.data(),
            [&](const ParallelCompressor::DecompressedShard &shard) {
                EXPECT_EQ(shard.index, expected_index++);
                EXPECT_EQ(shard.first_window,
                          shard.index * windows_per_shard);
                EXPECT_EQ(shard.raw_offset,
                          shard.first_window * 4096);
                raw_total += shard.raw_bytes;
                wire_total += shard.wire_bytes;
            });
        ASSERT_TRUE(status.ok()) << status.toString();
        EXPECT_EQ(expected_index, 13u); // ceil(65 windows / 5)
        EXPECT_EQ(raw_total, input.size());
        EXPECT_EQ(wire_total, compressed.effectiveBytes());
        EXPECT_EQ(out, input) << "lanes=" << lanes;
    }

    // Empty buffer: no shards, no output.
    const ParallelCompressor compressor(Algorithm::Zvc, 4096, 2);
    const CompressedBuffer empty = compressor.compress({});
    bool called = false;
    ASSERT_TRUE(compressor
                    .decompressShards(
                        empty, windows_per_shard, nullptr,
                        [&](const ParallelCompressor::DecompressedShard &) {
                            called = true;
                        })
                    .ok());
    EXPECT_FALSE(called);
}

} // namespace
} // namespace cdma
