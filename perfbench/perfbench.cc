/**
 * @file
 * End-to-end benchmark of the cDMA reproduction: one network descriptor
 * per workload, driven through both worlds.
 *
 *  - Real path: every layer's activation map (ActivationGenerator at the
 *    layer's shape and end-of-training DensitySchedule density) goes
 *    through TransferEngine::offloadInto into a SpillArena, then back
 *    through TransferEngine::prefetch in reverse layer order, and every
 *    restored map is compared with its input byte for byte.
 *  - Modeled step: the same network at its Table I batch in
 *    StepSimulator (TimingMode::Overlapped, half-duplex link) as vDNN,
 *    static ZVC and the adaptive codec policy.
 *
 * Everything is timed from outside, around calls into the library's
 * public entry points. With --trace 0 the program prints the end-to-end
 * metrics. With --trace 1 it alternates untraced passes with traced ones,
 * which record a wall-clock span around every timed call and replay the
 * stages (compress, CRC, arena append, expand, fan-out, duplex DES) on
 * the same data; it prints the per-layer metrics and writes a Chrome
 * trace-event JSON file.
 *
 * Usage: perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--trace-out <path>]
 * The last line of standard output is one JSON object; the exit code is
 * nonzero when any output check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdma/transfer_engine.hh"
#include "compress/kernels/kernels.hh"
#include "compress/policy.hh"
#include "obs/trace.hh"
#include "perf/step_sim.hh"
#include "sim/fault_injector.hh"
#include "sparsity/generator.hh"
#include "sparsity/schedule.hh"

using namespace cdma;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

/** Wall-clock seconds since the process started timing. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kStart).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (q in (0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<size_t>(rank, 1) - 1];
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload {
    std::string name;
    NetworkDesc net;
    int64_t batch = 1;   ///< real-path batch (the modeled side uses Table I)
    unsigned lanes = 1;  ///< compression lanes, calling thread included
    bool faulty = false; ///< offload_pipeline's demo fault process
};

/** Map seed of the faulty workload: its maps must not follow --seed, or
 *  the fault draws (and so the failed operations) would change with it. */
constexpr uint64_t kFaultyMapSeed = 2018;

std::optional<Workload>
workloadByName(const std::string &name)
{
    if (name == "vgg16_b1_serial")
        return Workload{name, vggDesc(), 1, 1, false};
    if (name == "squeezenet_b3_lanes4")
        return Workload{name, squeezeNetDesc(), 3, 4, false};
    if (name == "alexnet_b8_faulty")
        return Workload{name, alexNetDesc(), 8, 1, true};
    return std::nullopt;
}

// ---------------------------------------------------------------------
// Independent ZVC accounting (the benchmark's own count, not the
// library's): per 4 KB window, 4 mask bytes per 32-word group plus 4
// bytes per nonzero word (plus a raw sub-word tail).
// ---------------------------------------------------------------------

struct MapTruth {
    std::vector<uint32_t> window_payload; ///< ZVC payload bytes per window
    uint64_t words = 0;
    uint64_t nonzero_words = 0;
    uint64_t wire_bytes = 0; ///< sum of min(payload, raw) per window
};

MapTruth
countZvc(std::span<const uint8_t> bytes, uint64_t window_bytes)
{
    MapTruth truth;
    for (uint64_t off = 0; off < bytes.size(); off += window_bytes) {
        const uint64_t len =
            std::min<uint64_t>(window_bytes, bytes.size() - off);
        const uint64_t words = len / 4;
        uint64_t nonzero = 0;
        for (uint64_t w = 0; w < words; ++w) {
            uint32_t word;
            std::memcpy(&word, bytes.data() + off + 4 * w, 4);
            nonzero += word != 0;
        }
        const uint64_t payload =
            4 * ((words + 31) / 32) + 4 * nonzero + len % 4;
        truth.window_payload.push_back(static_cast<uint32_t>(payload));
        truth.words += words;
        truth.nonzero_words += nonzero;
        truth.wire_bytes += std::min(payload, len);
    }
    return truth;
}

// ---------------------------------------------------------------------
// Set-up: the generated maps plus every engine the run drives.
// ---------------------------------------------------------------------

struct Engines {
    Engines(const Workload &w, const CdmaConfig &base)
        : injector([] {
              sim::FaultConfig fault;
              fault.bit_flip_rate_per_byte = 2e-5;
              fault.link_failure_rate = 1e-3;
              return fault;
          }()),
          engine(withFaults(base, w.faulty)),
          adaptive_engine(adaptiveConfig(withFaults(base, w.faulty))),
          perfect_link_engine(modeledOnly(base)),
          transfers(engine),
          manager(w.net, w.net.default_batch),
          sim(manager, engine, perf, CudnnVersion::V5),
          adaptive_sim(manager, adaptive_engine, perf, CudnnVersion::V5),
          perfect_link_sim(manager, perfect_link_engine, perf,
                           CudnnVersion::V5)
    {
    }

    CdmaConfig withFaults(CdmaConfig config, bool faulty)
    {
        if (faulty)
            config.transfer.fault_injector = &injector;
        return config;
    }

    /** Engines that only price modeled steps compress no real bytes,
     *  so they get no lane pool of their own. */
    static CdmaConfig modeledOnly(CdmaConfig config)
    {
        config.compression.lanes = 1;
        return config;
    }

    CdmaConfig adaptiveConfig(CdmaConfig config)
    {
        config = modeledOnly(config);
        config.compression.mode = CodecMode::Adaptive;
        config.compression.policy = &policy;
        return config;
    }

    sim::FaultInjector injector;
    CodecPolicyEngine policy; ///< default-constructed PolicyConfig
    CdmaEngine engine;
    CdmaEngine adaptive_engine;
    /** The modeled vDNN baseline prices no fault process, so static ZVC
     *  is compared with it on a perfect link. */
    CdmaEngine perfect_link_engine;
    TransferEngine transfers;
    VdnnMemoryManager manager;
    PerfModel perf;
    StepSimulator sim;
    StepSimulator adaptive_sim;
    StepSimulator perfect_link_sim;
};

std::vector<Tensor4D>
generateMaps(const Workload &w, uint64_t seed)
{
    const DensitySchedule schedule(w.net);
    const ActivationGenerator generator;
    std::vector<Tensor4D> maps;
    for (size_t i = 0; i < w.net.layers.size(); ++i) {
        const LayerDesc &layer = w.net.layers[i];
        const double density =
            layer.relu_follows ? schedule.density(i, 1.0) : 1.0;
        Rng rng(seed * 1000003ull + i);
        maps.push_back(generator.generate(layer.shape(w.batch),
                                          Layout::NCHW, density, rng));
    }
    return maps;
}

// ---------------------------------------------------------------------
// The real round trip.
// ---------------------------------------------------------------------

/** Wall time of one pass's timed calls, split by leg. */
struct PassTimes {
    double offload_s = 0.0;
    double prefetch_s = 0.0;
    double total() const { return offload_s + prefetch_s; }
};

/** Per-pass sums of the traced stage replays. */
struct StageTimes {
    double zvc_compress_s = 0.0;
    double zvc_expand_s = 0.0;
    double crc_offload_s = 0.0;
    double crc_prefetch_s = 0.0;
    double fanout_compress_s = 0.0;
    double fanout_expand_s = 0.0;
    uint64_t expand_bytes = 0;        ///< maps restored by the expand replay
    uint64_t fanout_expand_bytes = 0; ///< maps restored by the fan-out replay
    uint64_t crc_bytes = 0;           ///< payload bytes both CRC replays read
    double duplex_timing_s = 0.0;
    double arena_append_s = 0.0;
    double memcpy_s = 0.0;
    double memcpy_cold_s = 0.0;
    /** A replay disagreed with the input or with the stored CRC. */
    bool mismatch = false;
};

/** Counters accumulated over every pass of the run. */
struct RunTally {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t retry_exhausted = 0;
    uint64_t restored_bytes = 0; ///< byte-identical restores, all passes
    uint64_t raw_offloaded = 0;  ///< raw bytes of successful offloads
    uint64_t wire_stored = 0;    ///< SpillArena::wireBytes of those
    uint64_t stored_shards = 0;
    uint64_t passes = 0;
    TransferIntegrity integrity;
    std::vector<std::string> check_failures;

    void fail(std::string what)
    {
        if (check_failures.size() < 20)
            check_failures.push_back(std::move(what));
        else if (check_failures.size() == 20)
            check_failures.push_back("(further check failures omitted)");
    }
};

/** Per-pass samples of the traced passes (medians become the
 *  per-layer metrics). */
struct TracedSamples {
    std::vector<double> pass_s, offload_self_ms, prefetch_self_ms;
    std::vector<double> zvc_compress, zvc_expand, crc, fanout_compress,
        fanout_expand, duplex_ms, append_ms, memcpy, memcpy_cold;
    bool replay_mismatch = false;

    void add(const PassTimes &t, const StageTimes &st, double pass_bytes)
    {
        pass_s.push_back(t.total());
        // compressShards covers compress and CRC at the workload's
        // lanes, which is what offloadInto runs underneath.
        offload_self_ms.push_back((t.offload_s - st.fanout_compress_s) * 1e3);
        prefetch_self_ms.push_back(
            (t.prefetch_s - st.crc_prefetch_s - st.zvc_expand_s) * 1e3);
        zvc_compress.push_back(pass_bytes / st.zvc_compress_s / 1e9);
        if (st.expand_bytes > 0)
            zvc_expand.push_back(static_cast<double>(st.expand_bytes) /
                                 st.zvc_expand_s / 1e9);
        crc.push_back(static_cast<double>(st.crc_bytes) /
                      (st.crc_offload_s + st.crc_prefetch_s) / 1e9);
        fanout_compress.push_back(pass_bytes / st.fanout_compress_s / 1e9);
        if (st.fanout_expand_bytes > 0)
            fanout_expand.push_back(
                static_cast<double>(st.fanout_expand_bytes) /
                st.fanout_expand_s / 1e9);
        duplex_ms.push_back(st.duplex_timing_s * 1e3);
        append_ms.push_back(st.arena_append_s * 1e3);
        memcpy.push_back(pass_bytes / st.memcpy_s / 1e9);
        memcpy_cold.push_back(pass_bytes / st.memcpy_cold_s / 1e9);
        replay_mismatch = replay_mismatch || st.mismatch;
    }
};

class Bench
{
  public:
    Bench(const Workload &w, Engines &e, const std::vector<Tensor4D> &maps,
          const std::vector<MapTruth> &truths)
        : w_(w), e_(e), maps_(maps), truths_(truths),
          window_bytes_(e.engine.config().compression.window_bytes)
    {
        uint64_t largest = 0;
        for (const Tensor4D &m : maps_)
            largest = std::max<uint64_t>(largest, m.rawBytes().size());
        scratch_out_.resize(largest);
        memcpy_dst_.resize(largest);
    }

    /**
     * One pass: offload every map in forward order, then prefetch in
     * reverse and compare. With @p trace set, every timed call gets a
     * span and the stage replays run beside the real calls.
     */
    PassTimes pass(RunTally &tally, obs::TraceRecorder *trace,
                   StageTimes *stages)
    {
        // Every pass replays the same fault stream, so each pass
        // attempts and fails exactly the same operations.
        e_.injector.reset();
        const size_t n = maps_.size();
        std::vector<std::optional<SpilledOffload>> spilled(n);
        PassTimes times;
        const double pass_begin = now();

        const double fwd_begin = now();
        for (size_t i = 0; i < n; ++i) {
            const std::span<const uint8_t> map = maps_[i].rawBytes();
            const double layer_begin = now();
            const double t0 = now();
            StatusOr<SpilledOffload> r = e_.transfers.offloadInto(map, arena_);
            const double t1 = now();
            times.offload_s += t1 - t0;
            span(trace, "TransferEngine::offloadInto", t0, t1,
                 {{"layer", w_.net.layers[i].name},
                  {"bytes", map.size()}});
            ++tally.attempted;
            if (!r.ok()) {
                recordFailure(tally, i, r.status());
            } else {
                checkStored(tally, i, r->ticket);
                tally.integrity.accumulate(r->integrity);
                tally.raw_offloaded += map.size();
                tally.wire_stored += arena_.wireBytes(r->ticket);
                tally.stored_shards += arena_.shardCount(r->ticket);
                spilled[i] = std::move(*r);
            }
            if (trace)
                replayForward(trace, *stages, i, spilled[i]);
            span(trace, "layer.forward", layer_begin, now(),
                 {{"layer", w_.net.layers[i].name}});
        }
        span(trace, "forward", fwd_begin, now());

        const double bwd_begin = now();
        for (size_t i = n; i-- > 0;) {
            if (!spilled[i])
                continue;
            const std::span<const uint8_t> map = maps_[i].rawBytes();
            const SpillTicket ticket = spilled[i]->ticket;
            const double layer_begin = now();
            const double t0 = now();
            StatusOr<PrefetchResult> r = e_.transfers.prefetch(arena_, ticket);
            const double t1 = now();
            times.prefetch_s += t1 - t0;
            span(trace, "TransferEngine::prefetch", t0, t1,
                 {{"layer", w_.net.layers[i].name},
                  {"bytes", map.size()}});
            if (!r.ok()) {
                recordFailure(tally, i, r.status());
            } else if (r->data.size() != map.size() ||
                       std::memcmp(r->data.data(), map.data(),
                                   map.size()) != 0) {
                ++tally.failed;
                tally.fail("layer " + w_.net.layers[i].name +
                           ": prefetch returned OK but the restored map "
                           "differs from the input");
            } else {
                tally.restored_bytes += map.size();
                tally.integrity.accumulate(r->integrity);
            }
            if (trace && r.ok())
                replayBackward(trace, *stages, i, *spilled[i], *r);
            arena_.release(ticket);
            span(trace, "layer.backward", layer_begin, now(),
                 {{"layer", w_.net.layers[i].name}});
        }
        span(trace, "backward", bwd_begin, now());
        span(trace, "pass", pass_begin, now(),
             {{"pass", tally.passes}});
        ++tally.passes;
        return times;
    }

    const SpillArena &arena() const { return arena_; }

  private:
    void span(obs::TraceRecorder *trace, const char *name, double begin,
              double end, obs::TraceArgs args = {})
    {
        if (trace)
            trace->span(track(trace), name, begin, end, std::move(args));
    }

    obs::TrackId track(obs::TraceRecorder *trace)
    {
        return trace->track("perfbench " + w_.name, "main");
    }

    void recordFailure(RunTally &tally, size_t layer, const Status &status)
    {
        ++tally.failed;
        if (status.code() == StatusCode::RetryExhausted) {
            ++tally.retry_exhausted;
            if (w_.faulty)
                return;
        }
        tally.fail("layer " + w_.net.layers[layer].name + ": " +
                   status.toString());
    }

    /** Stored wire bytes of every ZVC-framed window against the
     *  benchmark's own count. */
    void checkStored(RunTally &tally, size_t layer, SpillTicket ticket)
    {
        const MapTruth &truth = truths_[layer];
        const uint64_t total = maps_[layer].rawBytes().size();
        uint64_t windows = 0;
        for (size_t s = 0; s < arena_.shardCount(ticket); ++s) {
            const SpillShardView view = arena_.shard(ticket, s);
            windows += view.window_sizes.size();
            if (view.raw_framed)
                continue;
            uint64_t wire = 0;
            for (size_t k = 0; k < view.window_sizes.size(); ++k) {
                const uint64_t idx = view.first_window + k;
                const uint64_t raw = std::min<uint64_t>(
                    window_bytes_, total - idx * window_bytes_);
                if (idx >= truth.window_payload.size() ||
                    view.window_sizes[k] != truth.window_payload[idx]) {
                    tally.fail("layer " + w_.net.layers[layer].name +
                               ": window " + std::to_string(idx) +
                               " stored " +
                               std::to_string(view.window_sizes[k]) +
                               " bytes, independent ZVC count " +
                               (idx < truth.window_payload.size()
                                    ? std::to_string(
                                          truth.window_payload[idx])
                                    : std::string("(none)")));
                    return;
                }
                wire += std::min<uint64_t>(truth.window_payload[idx], raw);
            }
            if (view.wire_bytes != wire) {
                tally.fail("layer " + w_.net.layers[layer].name +
                           ": shard " + std::to_string(s) + " wire " +
                           std::to_string(view.wire_bytes) +
                           " bytes, independent count " +
                           std::to_string(wire));
                return;
            }
        }
        if (windows != truth.window_payload.size())
            tally.fail("layer " + w_.net.layers[layer].name + ": stored " +
                       std::to_string(windows) + " windows, expected " +
                       std::to_string(truth.window_payload.size()));
    }

    /** Forward-leg stage replays on layer @p i's map and stored shards. */
    void replayForward(obs::TraceRecorder *trace, StageTimes &st, size_t i,
                       const std::optional<SpilledOffload> &spilled)
    {
        const std::span<const uint8_t> map = maps_[i].rawBytes();
        const Compressor &codec = e_.engine.compressor().serial();

        double t0 = now();
        for (uint64_t off = 0; off < map.size(); off += window_bytes_) {
            compress_scratch_.clear();
            codec.compressWindowInto(
                map.subspan(off, std::min<uint64_t>(window_bytes_,
                                                    map.size() - off)),
                compress_scratch_);
        }
        double t1 = now();
        st.zvc_compress_s += t1 - t0;
        span(trace, "Compressor::compressWindowInto", t0, t1);

        t0 = now();
        e_.engine.compressor().compressShards(
            map, e_.transfers.shardWindows(),
            [](const CompressedShard &) {});
        t1 = now();
        st.fanout_compress_s += t1 - t0;
        span(trace, "ParallelCompressor::compressShards", t0, t1,
             {{"lanes", e_.engine.compressor().lanes()}});

        t0 = now();
        std::memcpy(memcpy_dst_.data(), map.data(), map.size());
        t1 = now();
        st.memcpy_s += t1 - t0;
        span(trace, "memcpy", t0, t1);

        t0 = now();
        {
            ByteVec fresh(map.size());
            std::memcpy(fresh.data(), map.data(), map.size());
        }
        t1 = now();
        st.memcpy_cold_s += t1 - t0;
        span(trace, "memcpy.cold", t0, t1);

        if (!spilled)
            return;
        const SpillTicket ticket = spilled->ticket;
        t0 = now();
        crcStoredShards(ticket, st);
        t1 = now();
        st.crc_offload_s += t1 - t0;
        span(trace, "KernelOps::crc32", t0, t1);

        // Re-append copies of the stored shards into a scratch arena;
        // only the appendShard calls are timed.
        std::vector<CompressedShard> copies;
        for (size_t s = 0; s < arena_.shardCount(ticket); ++s) {
            const SpillShardView view = arena_.shard(ticket, s);
            CompressedShard shard;
            shard.index = s;
            shard.first_window = view.first_window;
            shard.raw_bytes = view.raw_bytes;
            shard.payload.assign(view.payload.begin(), view.payload.end());
            shard.window_sizes.assign(view.window_sizes.begin(),
                                      view.window_sizes.end());
            shard.crc32c = view.crc32c;
            shard.raw_framed = view.raw_framed;
            shard.codec = view.codec;
            copies.push_back(std::move(shard));
        }
        const SpillTicket copy =
            append_arena_.beginSpill(map.size(), window_bytes_);
        t0 = now();
        for (const CompressedShard &shard : copies)
            append_arena_.appendShard(copy, shard);
        t1 = now();
        append_arena_.release(copy);
        st.arena_append_s += t1 - t0;
        span(trace, "SpillArena::appendShard", t0, t1,
             {{"shards", copies.size()}});
    }

    /** Backward-leg stage replays on layer @p i's stored shards. */
    void replayBackward(obs::TraceRecorder *trace, StageTimes &st, size_t i,
                        const SpilledOffload &spilled,
                        const PrefetchResult &restored)
    {
        const std::span<const uint8_t> map = maps_[i].rawBytes();
        const SpillTicket ticket = spilled.ticket;

        double t0 = now();
        crcStoredShards(ticket, st);
        double t1 = now();
        st.crc_prefetch_s += t1 - t0;
        span(trace, "KernelOps::crc32", t0, t1);

        bool any_raw_framed = false, expand_failed = false;
        t0 = now();
        for (size_t s = 0; s < arena_.shardCount(ticket); ++s) {
            const SpillShardView view = arena_.shard(ticket, s);
            any_raw_framed = any_raw_framed || view.raw_framed;
            const Compressor &codec = e_.engine.serialCodec(
                view.raw_framed ? Codec::Raw : view.codec);
            uint64_t in = 0;
            for (size_t k = 0; k < view.window_sizes.size(); ++k) {
                const uint64_t off =
                    (view.first_window + k) * window_bytes_;
                const uint64_t len =
                    std::min<uint64_t>(window_bytes_, map.size() - off);
                const Status status = codec.decompressWindowInto(
                    view.payload.subspan(in, view.window_sizes[k]), len,
                    scratch_out_.data() + off);
                expand_failed = expand_failed || !status.ok();
                in += view.window_sizes[k];
            }
        }
        t1 = now();
        st.zvc_expand_s += t1 - t0;
        st.expand_bytes += map.size();
        span(trace, "Compressor::decompressWindowInto", t0, t1);
        if (expand_failed ||
            std::memcmp(scratch_out_.data(), map.data(), map.size()) != 0)
            st.mismatch = true;

        // The stitched buffer has one codec slot, so spills holding a
        // shard degraded to raw framing cannot go through the fan-out.
        if (!any_raw_framed) {
            const CompressedBuffer buffer = arena_.materialize(ticket);
            t0 = now();
            const Status status = e_.engine.compressor().decompressShards(
                buffer, e_.transfers.shardWindows(), scratch_out_.data(),
                [](const ParallelCompressor::DecompressedShard &) {});
            t1 = now();
            if (!status.ok() ||
                std::memcmp(scratch_out_.data(), map.data(), map.size()))
                st.mismatch = true;
            st.fanout_expand_s += t1 - t0;
            st.fanout_expand_bytes += map.size();
            span(trace, "ParallelCompressor::decompressShards", t0, t1,
                 {{"lanes", e_.engine.compressor().lanes()}});
        }

        t0 = now();
        const DuplexTiming timing =
            e_.transfers.duplexTiming(spilled.shards, restored.shards);
        t1 = now();
        if (!(timing.makespan_seconds > 0.0))
            st.mismatch = true;
        st.duplex_timing_s += t1 - t0;
        span(trace, "TransferEngine::duplexTiming", t0, t1);
    }

    void crcStoredShards(SpillTicket ticket, StageTimes &st)
    {
        const KernelOps &kernels = e_.engine.compressor().serial().kernels();
        for (size_t s = 0; s < arena_.shardCount(ticket); ++s) {
            const SpillShardView view = arena_.shard(ticket, s);
            st.crc_bytes += view.payload.size();
            if (kernels.crc32(0, view.payload.data(), view.payload.size()) !=
                view.crc32c)
                st.mismatch = true;
        }
    }

    const Workload &w_;
    Engines &e_;
    const std::vector<Tensor4D> &maps_;
    const std::vector<MapTruth> &truths_;
    uint64_t window_bytes_;
    SpillArena arena_;
    SpillArena append_arena_;
    ByteVec compress_scratch_;
    ByteVec scratch_out_;
    ByteVec memcpy_dst_;
};

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
        (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            jsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<vgg16_b1_serial|squeezenet_b3_lanes4|alexnet_b8_faulty> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage("arguments come in --name value pairs");
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0)
        return usage("arguments come in --name value pairs");
    for (const char *required : {"workload", "seed", "seconds", "trace"})
        if (!args.count(required))
            return usage("missing a required argument");
    const std::optional<Workload> found = workloadByName(args["workload"]);
    if (!found)
        return usage(("unknown workload '" + args["workload"] + "'").c_str());
    const Workload &w = *found;
    const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
    const bool traced = args["trace"] == "1";
    if (!(seconds > 0.0) || (!traced && args["trace"] != "0"))
        return usage("--seconds must be positive and --trace 0 or 1");
    const std::string trace_out = args.count("trace-out")
        ? args["trace-out"]
        : "perfbench-trace-" + w.name + ".json";

    // ---- Set-up: map generation plus engine construction ----
    CdmaConfig base;
    base.compression.lanes = w.lanes;
    base.transfer.timing_mode = TimingMode::Overlapped;
    base.transfer.duplex_mode = DuplexMode::Half;
    const uint64_t map_seed = w.faulty ? kFaultyMapSeed : seed;
    std::vector<double> generate_s, engine_s;
    double t0 = now();
    const std::vector<Tensor4D> maps = generateMaps(w, map_seed);
    generate_s.push_back(now() - t0);
    constexpr int kEngineRepeats = 5;
    std::unique_ptr<Engines> engines;
    for (int rep = 0; rep < kEngineRepeats; ++rep) {
        engines.reset(); // at most one lane pool alive at a time
        t0 = now();
        engines = std::make_unique<Engines>(w, base);
        engine_s.push_back(now() - t0);
    }
    Engines &e = *engines;

    std::vector<std::string> checks;
    std::vector<MapTruth> truths;
    uint64_t pass_bytes = 0;
    for (const Tensor4D &m : maps) {
        truths.push_back(countZvc(m.rawBytes(), base.compression.window_bytes));
        pass_bytes += m.rawBytes().size();
    }

    // ---- Modeled step (inputs: the maps' ratios and densities) ----
    std::vector<double> ratios, densities;
    for (size_t i = 0; i < maps.size(); ++i) {
        ratios.push_back(static_cast<double>(maps[i].rawBytes().size()) /
                         static_cast<double>(truths[i].wire_bytes));
        densities.push_back(static_cast<double>(truths[i].nonzero_words) /
                            static_cast<double>(truths[i].words));
    }
    const StepResult oracle = e.sim.run(StepMode::Oracle);
    const StepResult vdnn = e.sim.run(StepMode::Vdnn);
    const StepResult adaptive = e.adaptive_sim.runAdaptive(densities);
    const StepResult cdma_step = e.sim.run(StepMode::Cdma, ratios);
    const uint64_t shard_raw = e.transfers.shardWindows() *
        base.compression.window_bytes;
    uint64_t sim_shards = 0;
    for (const TransferOp &op : e.manager.offloadSchedule())
        sim_shards += 2 * ((op.bytes + shard_raw - 1) / shard_raw);

    for (const StepResult *r :
         {&vdnn, static_cast<const StepResult *>(&cdma_step), &adaptive}) {
        if (r->total_seconds < oracle.total_seconds * (1 - 1e-12) ||
            r->total_seconds < r->compute_seconds * (1 - 1e-12))
            checks.push_back("a modeled iteration beat its oracle time");
        if (r->wire_transfer_bytes > r->raw_transfer_bytes)
            checks.push_back("a modeled iteration moved more wire bytes "
                             "than raw bytes");
    }
    const StepResult perfect_link =
        w.faulty ? e.perfect_link_sim.run(StepMode::Cdma, ratios) : cdma_step;
    if (perfect_link.total_seconds > vdnn.total_seconds * (1 + 1e-12))
        checks.push_back("static ZVC modeled slower than vDNN");

    std::vector<double> policy_errors;
    uint64_t policy_raw_layers = 0;
    for (const LayerStepStats &layer : adaptive.layers) {
        if (layer.policy_predicted_seconds <= 0.0 ||
            layer.policy_actual_seconds <= 0.0)
            continue;
        policy_errors.push_back(
            std::fabs(layer.policy_predicted_seconds -
                      layer.policy_actual_seconds) /
            layer.policy_actual_seconds);
        policy_raw_layers += layer.codec == Codec::Raw;
    }

    // ---- Real round trip ----
    Bench bench(w, e, maps, truths);
    RunTally tally;
    constexpr int kWarmupPasses = 2;
    constexpr size_t kMinPasses = 10;
    for (int p = 0; p < kWarmupPasses; ++p)
        bench.pass(tally, nullptr, nullptr);

    // This host's CPU speed drifts over seconds, so the modeled
    // iteration's host time and the map generation are sampled between
    // passes, spread over the whole measured window, rather than in one
    // burst; with tracing, traced and untraced passes alternate for the
    // same reason. The repeats also check that they reproduce the first
    // result.
    constexpr double kSimShare = 0.15;
    constexpr double kGenerateShare = 0.1;
    constexpr size_t kMinSamples = 5;
    std::vector<double> pass_s, offload_s, prefetch_s, sim_host_s;
    double sim_host_total = 0.0, generate_total = 0.0;
    bool sim_repeats = true, maps_repeat = true;
    obs::TraceRecorder trace;
    TracedSamples ts;
    const double loop_begin = now();
    while (pass_s.size() < kMinPasses || sim_host_s.size() < kMinSamples ||
           generate_s.size() < kMinSamples ||
           now() - loop_begin < seconds) {
        const PassTimes t = bench.pass(tally, nullptr, nullptr);
        pass_s.push_back(t.total());
        offload_s.push_back(t.offload_s);
        prefetch_s.push_back(t.prefetch_s);
        if (traced) {
            StageTimes st;
            ts.add(bench.pass(tally, &trace, &st), st,
                   static_cast<double>(pass_bytes));
        }
        if (sim_host_total <= kSimShare * (now() - loop_begin)) {
            t0 = now();
            const StepResult again = e.sim.run(StepMode::Cdma, ratios);
            sim_host_s.push_back(now() - t0);
            sim_host_total += sim_host_s.back();
            sim_repeats = sim_repeats &&
                again.total_seconds == cdma_step.total_seconds;
        }
        if (generate_total <= kGenerateShare * (now() - loop_begin)) {
            t0 = now();
            const std::vector<Tensor4D> again = generateMaps(w, map_seed);
            generate_s.push_back(now() - t0);
            generate_total += generate_s.back();
            for (size_t i = 0; i < maps.size(); ++i)
                maps_repeat = maps_repeat &&
                    std::ranges::equal(again[i].rawBytes(),
                                       maps[i].rawBytes());
        }
    }
    if (!sim_repeats)
        checks.push_back("the modeled iteration is not deterministic");
    if (!maps_repeat)
        checks.push_back("the same seed generated different maps");
    if (ts.replay_mismatch)
        checks.push_back("a stage replay (CRC, expand, fan-out expand or "
                         "duplex timing) disagreed with the input");
    const double setup_s = median(generate_s) + median(engine_s);

    std::vector<Metric> metrics;
    if (!traced) {
        const double restored_per_pass =
            static_cast<double>(tally.restored_bytes) /
            static_cast<double>(tally.passes);
        metrics = {
            {"roundtrip_gbps", restored_per_pass / median(pass_s) / 1e9,
             "GB/s"},
            {"roundtrip_ms_p90", percentile(pass_s, 0.9) * 1e3, "ms"},
            {"offload_gbps",
             static_cast<double>(pass_bytes) / median(offload_s) / 1e9,
             "GB/s"},
            {"prefetch_gbps", restored_per_pass / median(prefetch_s) / 1e9,
             "GB/s"},
            {"compression_ratio",
             static_cast<double>(tally.raw_offloaded) /
                 static_cast<double>(tally.wire_stored),
             "x"},
            {"spill_peak_mb",
             static_cast<double>(bench.arena().stats().slab_bytes) / 1e6,
             "MB"},
            {"sim_step_ms", cdma_step.total_seconds * 1e3, "sim_ms"},
            {"sim_adaptive_step_ms", adaptive.total_seconds * 1e3, "sim_ms"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        trace.writeFileOrDie(trace_out);
        std::fprintf(stderr, "perfbench: wrote %zu trace events to %s\n",
                     trace.eventCount(), trace_out.c_str());
        const SpillStats &spill = bench.arena().stats();
        const double passes = static_cast<double>(tally.passes);
        const TransferIntegrity &in = tally.integrity;
        metrics = {
            {"compress.zvc_compress_gbps", median(ts.zvc_compress), "GB/s"},
            {"compress.zvc_expand_gbps", median(ts.zvc_expand), "GB/s"},
            {"compress.crc_gbps", median(ts.crc), "GB/s"},
            {"compress.fanout_compress_gbps", median(ts.fanout_compress), "GB/s"},
            {"compress.fanout_expand_gbps", median(ts.fanout_expand), "GB/s"},
            {"cdma.offload_self_ms", median(ts.offload_self_ms), "ms"},
            {"cdma.prefetch_self_ms", median(ts.prefetch_self_ms), "ms"},
            {"cdma.duplex_timing_ms", median(ts.duplex_ms), "ms"},
            {"cdma.arena_append_ms", median(ts.append_ms), "ms"},
            {"cdma.shards", static_cast<double>(tally.stored_shards) / passes,
             "count"},
            {"cdma.slab_mb", static_cast<double>(spill.slab_bytes) / 1e6, "MB"},
            {"cdma.high_water_mb",
             static_cast<double>(spill.high_water_payload_bytes) / 1e6, "MB"},
            {"cdma.reused_slot_frac",
             spill.stored_shards
                 ? static_cast<double>(spill.reused_slots) /
                     static_cast<double>(spill.stored_shards)
                 : 0.0,
             "fraction"},
            {"fault.attempts", static_cast<double>(in.attempts) / passes,
             "count"},
            {"fault.retries", static_cast<double>(in.retries) / passes,
             "count"},
            {"fault.crc_failures",
             static_cast<double>(in.crc_failures) / passes, "count"},
            {"fault.link_faults", static_cast<double>(in.link_faults) / passes,
             "count"},
            {"fault.degraded_shards",
             static_cast<double>(in.degraded_shards) / passes, "count"},
            {"fault.failed_wire_mb",
             static_cast<double>(in.failed_wire_bytes) / passes / 1e6, "MB"},
            {"fault.retry_exhausted",
             static_cast<double>(tally.retry_exhausted) / passes, "count"},
            {"perf.vdnn_step_ms", vdnn.total_seconds * 1e3, "sim_ms"},
            {"perf.oracle_step_ms", oracle.total_seconds * 1e3, "sim_ms"},
            {"perf.perfect_link_step_ms", perfect_link.total_seconds * 1e3,
             "sim_ms"},
            {"perf.stall_ms", cdma_step.stall_seconds * 1e3, "sim_ms"},
            {"perf.contention_ms",
             (cdma_step.offload_contention_seconds +
              cdma_step.prefetch_contention_seconds) * 1e3,
             "sim_ms"},
            {"perf.pcie_utilization", cdma_step.pcie_utilization, "fraction"},
            {"perf.retry_stall_ms",
             cdma_step.integrity.retry_stall_seconds * 1e3, "sim_ms"},
            {"perf.policy_error_p50", median(policy_errors), "fraction"},
            {"perf.policy_error_max",
             policy_errors.empty()
                 ? 0.0
                 : *std::max_element(policy_errors.begin(),
                                     policy_errors.end()),
             "fraction"},
            {"perf.policy_raw_layers", static_cast<double>(policy_raw_layers),
             "count"},
            {"sim.shards", static_cast<double>(sim_shards), "count"},
            {"sim.host_ms", median(sim_host_s) * 1e3, "ms"},
            {"sim.host_us_per_shard",
             median(sim_host_s) * 1e6 / static_cast<double>(sim_shards),
             "us"},
            {"setup.generate_s", median(generate_s), "s"},
            {"setup.engine_s", median(engine_s), "s"},
            {"host.memcpy_gbps", median(ts.memcpy), "GB/s"},
            {"host.memcpy_cold_gbps", median(ts.memcpy_cold), "GB/s"},
            {"trace.overhead_pct",
             100.0 * (median(ts.pass_s) / median(pass_s) - 1.0), "%"},
        };
    }

    for (const std::string &c : tally.check_failures)
        checks.push_back(c);
    const bool correct = checks.empty();
    for (const std::string &c : checks)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", c.c_str());
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %llu passes (%zu timed untraced) "
                 "of %zu maps, %.1f MB per pass; %llu/%llu operations "
                 "failed; modeled vDNN %.1f / static ZVC %.1f / adaptive "
                 "%.1f / oracle %.1f sim ms\n",
                 w.name.c_str(), static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(tally.passes), pass_s.size(),
                 maps.size(), static_cast<double>(pass_bytes) / 1e6,
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted),
                 vdnn.total_seconds * 1e3, cdma_step.total_seconds * 1e3,
                 adaptive.total_seconds * 1e3, oracle.total_seconds * 1e3);
    printResult(correct, tally.attempted, tally.failed, metrics);
    return correct ? 0 : 1;
}
