#include "cdma/engine.hh"

#include <algorithm>

#include "cdma/transfer_engine.hh"
#include "common/logging.hh"
#include "compress/policy.hh"
#include "obs/metrics.hh"

namespace cdma {

std::string
timingModeName(TimingMode mode)
{
    switch (mode) {
      case TimingMode::CompressionFree: return "compression-free";
      case TimingMode::Overlapped:      return "overlapped";
    }
    panic("unreachable timing mode %d", static_cast<int>(mode));
}

std::string
codecModeName(CodecMode mode)
{
    switch (mode) {
      case CodecMode::Fixed:    return "fixed";
      case CodecMode::Adaptive: return "adaptive";
    }
    panic("unreachable codec mode %d", static_cast<int>(mode));
}

CdmaEngine::CdmaEngine(const CdmaConfig &config)
    : config_(config),
      compressor_(std::make_unique<ParallelCompressor>(
          config.compression.algorithm,
          config.compression.window_bytes, config.compression.lanes,
          config.compression.kernels))
{
    CDMA_ASSERT(config.gpu.pcie_bandwidth > 0.0 &&
                    config.gpu.comp_bandwidth > 0.0,
                "invalid cDMA bandwidth configuration");
    compressor_->setMetrics(config_.obs.metrics);

    // Serial decoder bank: the prefetch side dispatches per stored
    // shard's codec tag, so every codec's decoder must exist whatever
    // mode the engine runs in (mixed-codec spills can arrive from an
    // adaptive peer). Cheap stateless objects.
    const CompressionConfig &comp = config_.compression;
    for (const Codec codec : kAllCodecs) {
        serial_codecs_.push_back(
            makeCodecCompressor(codec, comp.window_bytes, comp.kernels));
    }

    // Adaptive compressor bank: one ParallelCompressor per codec the
    // policy can choose. Only under Adaptive — each bank entry with
    // lanes != 1 owns a thread pool, a cost Fixed engines shouldn't pay.
    if (comp.mode == CodecMode::Adaptive) {
        CDMA_ASSERT(comp.policy != nullptr,
                    "CodecMode::Adaptive needs a CodecPolicyEngine "
                    "(CompressionConfig::policy)");
        const Codec fixed = codecFor(comp.algorithm);
        codec_bank_.resize(std::size(kAllCodecs));
        for (const Codec codec : kAllCodecs) {
            if (codec == fixed)
                continue; // compressorFor() routes this to compressor_
            auto bank = std::make_unique<ParallelCompressor>(
                makeCodecCompressor(codec, comp.window_bytes,
                                    comp.kernels),
                comp.lanes);
            bank->setMetrics(config_.obs.metrics);
            codec_bank_[static_cast<size_t>(codec)] = std::move(bank);
        }
    }
}

const ParallelCompressor &
CdmaEngine::compressorFor(Codec codec) const
{
    if (codec == compressor_->codecTag() || codec_bank_.empty())
        return *compressor_;
    const auto &bank = codec_bank_[static_cast<size_t>(codec)];
    CDMA_ASSERT(bank != nullptr, "no bank compressor for codec %s",
                codecName(codec).c_str());
    return *bank;
}

const Compressor &
CdmaEngine::serialCodec(Codec codec) const
{
    return *serial_codecs_[static_cast<size_t>(codec)];
}

void
recordIntegrity(obs::MetricsRegistry &metrics,
                const TransferIntegrity &integrity)
{
    metrics.counter("integrity.attempts").add(integrity.attempts);
    metrics.counter("integrity.retries").add(integrity.retries);
    metrics.counter("integrity.crc_failures").add(integrity.crc_failures);
    metrics.counter("integrity.link_faults").add(integrity.link_faults);
    metrics.counter("integrity.degraded_shards")
        .add(integrity.degraded_shards);
    metrics.counter("integrity.failed_wire_bytes")
        .add(integrity.failed_wire_bytes);
    metrics.histogram("integrity.retry_stall_seconds")
        .record(integrity.retry_stall_seconds);
}

double
CdmaEngine::capRatio() const
{
    return config_.gpu.comp_bandwidth / config_.gpu.pcie_bandwidth;
}

double
CdmaEngine::transferSeconds(uint64_t wire_bytes, double ratio) const
{
    double seconds = static_cast<double>(wire_bytes) /
        config_.gpu.pcie_effective_bandwidth;
    // Section VI: when ratio x PCIe_BW exceeds the provisioned COMP_BW,
    // compressed data cannot be produced at line rate; latency inflates
    // by (required / COMP_BW).
    const double required = ratio * config_.gpu.pcie_bandwidth;
    if (required > config_.gpu.comp_bandwidth)
        seconds *= required / config_.gpu.comp_bandwidth;
    return seconds;
}

TransferPlan
CdmaEngine::planTransfer(const std::string &label,
                         std::span<const uint8_t> data) const
{
    if (!config_.compression.enabled) {
        return planFromRatio(label, data.size(), 1.0);
    }
    // Adaptive mode: let the policy sample the actual bytes and pick
    // the codec; the plan is then built with that codec end to end and
    // the achieved ratio feeds back into the policy's model.
    CodecPolicyEngine *policy = config_.compression.policy;
    std::optional<PolicyDecision> decision;
    Codec codec = compressor_->codecTag();
    if (config_.compression.mode == CodecMode::Adaptive &&
        policy != nullptr) {
        decision = policy->decide(label, data);
        codec = decision->codec;
    }
    TransferPlan plan;
    plan.label = label;
    plan.raw_bytes = data.size();
    plan.codec = codec;
    if (decision)
        plan.policy_predicted_seconds = decision->predicted_seconds;
    if (config_.transfer.timing_mode == TimingMode::Overlapped) {
        // Double-buffered pipeline over the real per-shard compressed
        // sizes: compression latency is explicit and the COMP_BW cap
        // emerges when the compression stage cannot feed the link.
        const TransferEngine transfers(*this);
        // Measure the shard train the arena flow would store: per-shard
        // raw and store-raw-floored wire bytes.
        const uint64_t window_bytes = config_.compression.window_bytes;
        std::vector<ShardTransfer> shards;
        compressorFor(codec).compressShards(
            data, transfers.shardWindows(), [&](CompressedShard &&shard) {
                shards.push_back(
                    {shard.raw_bytes, shard.effectiveBytes(window_bytes)});
                plan.wire_bytes += shards.back().wire_bytes;
            });
        plan.ratio = plan.wire_bytes > 0
            ? static_cast<double>(plan.raw_bytes) /
                static_cast<double>(plan.wire_bytes)
            : 1.0;
        // No crossing happens here, so a configured fault process is
        // priced in expectation (the arena flow samples it per crossing).
        transfers.applyExpectedFaults(shards);
        plan.offload = transfers.duplexTiming(shards, {}).offload;
        plan.seconds = plan.offload.overlapped_seconds;
        // The prefetch leg returns the same compressed shards, so its
        // pipeline is modeled over the same measured sizes (wire in,
        // then decompress) without re-running the codec. Routed
        // through the duplex DES (prefetch direction only) so a
        // configured fault process prices its backoff identically in
        // both directions.
        plan.prefetch = transfers.duplexTiming({}, shards).prefetch;
        // Integrity expectation for the round trip: the offload train
        // crosses once, the prefetch returns the same train.
        plan.integrity = TransferEngine::trainIntegrity(shards);
        plan.integrity.accumulate(TransferEngine::trainIntegrity(shards));
        plan.integrity.retry_stall_seconds =
            plan.offload.retry_stall_seconds +
            plan.prefetch.retry_stall_seconds;
        // The duplex race of this map's offload against an equal-size
        // prefetch on the configured link (same measured shard train in
        // both directions). Under Full the directions are independent
        // by construction, so the race is composed from the breakdowns
        // already computed instead of re-running the DES.
        if (config_.transfer.duplex_mode == DuplexMode::Full) {
            plan.duplex.offload = plan.offload;
            plan.duplex.prefetch = plan.prefetch;
            plan.duplex.makespan_seconds =
                std::max(plan.offload.overlapped_seconds,
                         plan.prefetch.overlapped_seconds);
        } else {
            plan.duplex = transfers.duplexTiming(shards, shards);
        }
    } else {
        const CompressedBuffer compressed =
            compressorFor(codec).compress(data);
        plan.wire_bytes = compressed.effectiveBytes();
        plan.ratio = compressed.effectiveRatio();
        plan.seconds = transferSeconds(plan.wire_bytes, plan.ratio);
    }
    plan.required_fetch_bandwidth =
        plan.ratio * config_.gpu.pcie_bandwidth;
    plan.fetch_capped =
        plan.required_fetch_bandwidth > config_.gpu.comp_bandwidth;
    // Close the policy loop with the ratio the codec actually achieved
    // on these bytes (the modeled ratio was an interpolation).
    if (decision)
        policy->observe(label, *decision, plan.raw_bytes, plan.ratio);
    return plan;
}

TransferPlan
CdmaEngine::planFromDensity(const std::string &label, uint64_t raw_bytes,
                            double density) const
{
    if (!config_.compression.enabled)
        return planFromRatio(label, raw_bytes, 1.0);
    CodecPolicyEngine *policy = config_.compression.policy;
    CDMA_ASSERT(config_.compression.mode == CodecMode::Adaptive &&
                    policy != nullptr,
                "planFromDensity needs CodecMode::Adaptive with a "
                "configured policy engine");
    const PolicyDecision decision =
        policy->decideFromDensity(label, raw_bytes, density);
    TransferPlan plan = planFromRatio(
        label, raw_bytes, std::max(1.0, decision.predicted_ratio));
    plan.codec = decision.codec;
    plan.policy_predicted_seconds = decision.predicted_seconds;
    return plan;
}

TransferPlan
CdmaEngine::planFromRatio(const std::string &label, uint64_t raw_bytes,
                          double ratio) const
{
    CDMA_ASSERT(ratio >= 1.0, "ratio %f below store-raw floor", ratio);
    TransferPlan plan;
    plan.label = label;
    plan.raw_bytes = raw_bytes;
    const double effective_ratio =
        config_.compression.enabled ? ratio : 1.0;
    plan.wire_bytes = static_cast<uint64_t>(
        static_cast<double>(raw_bytes) / effective_ratio);
    plan.ratio = effective_ratio;
    plan.required_fetch_bandwidth =
        plan.ratio * config_.gpu.pcie_bandwidth;
    plan.fetch_capped =
        plan.required_fetch_bandwidth > config_.gpu.comp_bandwidth;
    // With compression disabled there is no cDMA engine in the path, so
    // the overlap pipeline (and its compression-fetch leg) does not
    // apply: plain DMA occupancy regardless of timing mode.
    if (config_.transfer.timing_mode == TimingMode::Overlapped &&
        config_.compression.enabled) {
        const TransferEngine transfers(*this);
        if (config_.transfer.fault_injector != nullptr) {
            // The closed form models a perfect link; with a fault
            // process configured, replay the expected shard train
            // (attempts / re-sent bytes in expectation) through the
            // duplex DES so retries and backoff are priced.
            const std::vector<ShardTransfer> train =
                transfers.shardTrain(raw_bytes, plan.ratio);
            plan.offload = transfers.duplexTiming(train, {}).offload;
            plan.prefetch = transfers.duplexTiming({}, train).prefetch;
            // Round trip: the train crosses once per direction.
            plan.integrity = TransferEngine::trainIntegrity(train);
            plan.integrity.accumulate(
                TransferEngine::trainIntegrity(train));
            plan.integrity.retry_stall_seconds =
                plan.offload.retry_stall_seconds +
                plan.prefetch.retry_stall_seconds;
        } else {
            const DuplexTiming alone =
                transfers.closedForm(raw_bytes, plan.ratio);
            plan.offload = alone.offload;
            plan.prefetch = alone.prefetch;
        }
        plan.seconds = plan.offload.overlapped_seconds;
        // Same Full-duplex shortcut as planTransfer: independent
        // directions need no contended replay.
        if (config_.transfer.duplex_mode == DuplexMode::Full) {
            plan.duplex.offload = plan.offload;
            plan.duplex.prefetch = plan.prefetch;
            plan.duplex.makespan_seconds =
                std::max(plan.offload.overlapped_seconds,
                         plan.prefetch.overlapped_seconds);
        } else {
            plan.duplex = transfers.modelFromRatio(
                raw_bytes, plan.ratio, raw_bytes, plan.ratio);
        }
    } else {
        plan.seconds = transferSeconds(plan.wire_bytes, plan.ratio);
    }
    return plan;
}

} // namespace cdma
