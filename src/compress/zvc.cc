#include "compress/zvc.hh"

#include "common/bits.hh"
#include "compress/kernels/kernels.hh"

namespace cdma {

ZvcCompressor::ZvcCompressor(uint64_t window_bytes,
                             const KernelOps *kernels)
    : Compressor(window_bytes, kernels)
{
}

uint64_t
ZvcCompressor::predictedBytes(uint64_t total_words, uint64_t nonzero_words)
{
    const uint64_t masks = ceilDiv(total_words, kMaskWords);
    return masks * sizeof(uint32_t) + nonzero_words * kWordBytes;
}

uint64_t
ZvcCompressor::compressedBound(uint64_t raw_len) const
{
    // Exact worst case: every word non-zero plus one mask per group plus
    // the raw sub-word tail.
    const uint64_t words = raw_len / kWordBytes;
    return predictedBytes(words, words) + raw_len % kWordBytes;
}

void
ZvcCompressor::compressWindowInto(std::span<const uint8_t> window,
                                  ByteVec &out) const
{
    // Sized to the worst case up front and trimmed once at the end; out
    // is a ByteVec, so the resize-to-bound leaves the staging bytes
    // uninitialized instead of zero-filling a region the kernel
    // overwrites. The worst-case sizing is also the scratch headroom the
    // backend's zvcCompressWindow may store whole sub-blocks into.
    const size_t base = out.size();
    out.resize(base + compressedBound(window.size()));
    const size_t written = kernels().zvcCompressWindow(
        window.data(), window.size(), out.data() + base);
    out.resize(base + written);
}

Status
ZvcCompressor::decompressWindowInto(std::span<const uint8_t> payload,
                                    uint64_t original_bytes,
                                    uint8_t *out) const
{
    // The backend's zvcExpandWindow bounds-checks every mask and payload
    // read, so a truncated or corrupted wire payload surfaces here as a
    // Status, never a panic or an out-of-bounds access.
    using Fault = ZvcExpandResult::Fault;
    const ZvcExpandResult result = kernels().zvcExpandWindow(
        payload.data(), payload.size(), original_bytes, out);
    switch (result.fault) {
      case Fault::None:
        return Status();
      case Fault::MaskTruncated:
        return Status::truncated(
            "ZV: payload truncated before mask at byte %zu "
            "(payload %zu bytes)", result.cursor, payload.size());
      case Fault::DataTruncated:
        return Status::truncated(
            "ZV: payload truncated in non-zero data at byte %zu "
            "(mask promises %u words, payload %zu bytes)", result.cursor,
            result.promised, payload.size());
      case Fault::TailTruncated:
        return Status::truncated(
            "ZV: payload truncated in raw tail at byte %zu "
            "(payload %zu bytes)", result.cursor, payload.size());
      case Fault::TrailingBytes:
        break;
    }
    return Status::corrupt("ZV: payload has %zu trailing bytes",
                           payload.size() - result.cursor);
}

} // namespace cdma
