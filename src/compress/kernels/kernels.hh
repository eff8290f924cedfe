/**
 * @file
 * Pluggable SIMD kernel layer for the codec stack. The paper's CPE/DPE
 * datapaths get their throughput from wide fixed-function mask-and-compact
 * hardware (Section V-B, Figure 10); every software codec in this repo
 * reduces to the same few primitive hot operations — zero-mask formation
 * over 32-bit activation words, left-pack compaction of the non-zero
 * words, zero/literal run scanning, and bulk byte-sink copies. KernelOps
 * factors those primitives into one function-pointer table with a
 * portable scalar backend, an AVX2 backend (vpcmpeqd + vpmovmskb mask
 * formation, shuffle-table left-packing, wide run scans) and an AVX-512
 * backend (vpcompressd left-pack / vpexpandd scatter — the mask-driven
 * compaction is a single native instruction there — with 64-byte-stride
 * scans), so vectorizing the primitive once lifts ZVC, RLE and the
 * DEFLATE tokenizer together.
 *
 * The table covers both directions: the compaction ops feed the offload
 * leg, and the expand ops (zvcExpandWindow's mask-driven scatter — the
 * inverse shuffle-table lookup — plus the zero-fill used by RLE run
 * reconstruction) feed the prefetch leg, so the decompressor can keep
 * pace with the link the way Section V-B provisions the DPE replicas.
 * The ZVC ops work a whole window per call: the group loop, the
 * partial last group, the sub-word tail and the expand-side bounds
 * checks all live in the backend, so the codec pays one indirect call
 * per 4 KB window instead of one per 128-byte group.
 *
 * Dispatch is decided once at startup: CPUID picks the widest supported
 * backend, and the CDMA_KERNEL_BACKEND environment variable ("scalar",
 * "avx2" or "avx512") overrides it — chiefly to force a narrower path
 * on wide hosts for differential testing and the CI forced-backend job
 * legs; an unsupported or unknown name is fatal and the message lists
 * the backends this host actually supports. Codecs
 * capture the table at construction, so every lane of a
 * ParallelCompressor shares the codec's single dispatch decision.
 *
 * Every backend must produce *byte-identical* codec output: the table
 * changes how the masks and runs are computed, never what is emitted.
 * tests/compress/kernels_test.cc pins this property per op and per codec.
 */

#ifndef CDMA_COMPRESS_KERNELS_KERNELS_HH
#define CDMA_COMPRESS_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cdma {

/**
 * Outcome of KernelOps::zvcExpandWindow. The op only classifies the
 * fault; ZvcCompressor turns it into a Status.
 */
struct ZvcExpandResult {
    enum class Fault : uint8_t {
        None,          ///< window restored, payload consumed exactly
        MaskTruncated, ///< payload ends before a group's 4-byte mask
        DataTruncated, ///< a mask promises more words than remain
        TailTruncated, ///< payload ends inside the raw sub-word tail
        TrailingBytes, ///< payload continues past the window's stream
    };
    Fault fault = Fault::None;
    /**
     * Payload offset where decoding stopped: the failing read for the
     * truncation faults, the end of the window's stream otherwise.
     */
    size_t cursor = 0;
    /** Non-zero words the failing mask promised (DataTruncated only). */
    uint32_t promised = 0;

    bool operator==(const ZvcExpandResult &) const = default;
};

/**
 * The primitive hot operations of the codec stack, as a flat function
 * table. All word offsets/counts are in 4-byte (fp32 activation) words.
 */
struct KernelOps {
    /** Backend identifier ("scalar", "avx2", "avx512"). */
    const char *name;

    /**
     * ZVC compress op over one whole window of @p bytes bytes at @p src:
     * for every group of up to 32 consecutive 32-bit words (only the
     * window's last group may be shorter), a 4-byte mask of the non-zero
     * words followed by those words left-packed in order (the software
     * mirror of the hardware prefix-sum shift network); then the
     * window's sub-word tail (@p bytes % 4 bytes) stored raw. Returns
     * the stream length in bytes.
     *
     * Headroom: @p dst must have room for the all-dense stream size,
     * ZvcCompressor::compressedBound(@p bytes) = 4 * groups + 4 * words
     * + bytes % 4. Backends may store whole sub-blocks unconditionally
     * and let the write pointer lag (the branchless left-pack trick), so
     * bytes between the returned length and that bound are scratch. A
     * full sub-block of k words never writes past the bound: the words
     * it covers are still owed their 4k bytes there.
     */
    size_t (*zvcCompressWindow)(const uint8_t *src, size_t bytes,
                                uint8_t *dst);

    /**
     * ZVC expand op, the inverse of zvcCompressWindow: decode the
     * @p payload_bytes stream at @p src into exactly @p original_bytes
     * bytes at @p dst (zeros where a mask bit is clear). Mask bits at or
     * above a short final group's word count are ignored (the
     * trailing-bytes check then flags the surplus payload).
     *
     * The op bounds-checks every mask and payload read: it never reads
     * outside [@p src, @p src + @p payload_bytes) and never writes
     * outside [@p dst, @p dst + @p original_bytes), whatever the
     * payload holds. A malformed stream stops at the first fault with
     * @p dst in an unspecified state. Every backend reports the same
     * ZvcExpandResult for the same input.
     */
    ZvcExpandResult (*zvcExpandWindow)(const uint8_t *src,
                                       size_t payload_bytes,
                                       size_t original_bytes,
                                       uint8_t *dst);

    /**
     * Length of the run of all-zero 32-bit words starting at @p words,
     * capped at @p limit words (limit >= 1).
     */
    uint64_t (*zeroRunWords)(const uint8_t *words, uint64_t limit);

    /**
     * Length of the run of non-zero 32-bit words starting at @p words,
     * capped at @p limit words (limit >= 1).
     */
    uint64_t (*literalRunWords)(const uint8_t *words, uint64_t limit);

    /**
     * Length of the common byte prefix of @p a and @p b, capped at
     * @p max bytes. Both pointers must be readable for @p max bytes
     * (the LZ77 match extension guarantees this by construction).
     */
    size_t (*matchLength)(const uint8_t *a, const uint8_t *b, size_t max);

    /**
     * Bulk byte-sink copy of @p n bytes from @p src to @p dst (used for
     * literal-run and raw-tail emission into the payload sink). Regions
     * must not overlap.
     */
    void (*copyBytes)(uint8_t *dst, const uint8_t *src, size_t n);

    /**
     * Zero-fill of @p n bytes at @p dst — the reconstruction side of a
     * zero run (RLE zero tokens, ZVC all-zero groups): the decompressor
     * spends most of its stores here at the paper's 50-90% sparsity.
     */
    void (*zeroFillBytes)(uint8_t *dst, size_t n);

    /**
     * CRC32C (Castagnoli) over @p n bytes at @p data, continuing from
     * @p seed (pass 0 to start; the pre/post inversion is internal, so
     * chaining crc32(crc32(0, a), b) equals crc32(0, a+b)). This is the
     * end-to-end integrity check framing every spilled shard: computed
     * at compress time, verified on prefetch before expansion. The
     * scalar backend is a slice-by-8 table walk; the AVX2 and AVX-512
     * backends share the SSE4.2 crc32 instruction, run as three
     * independent streams (kCrc32cStreamStrides) whose registers are
     * merged with a PCLMULQDQ shift. All produce the identical standard
     * CRC32C value.
     */
    uint32_t (*crc32)(uint32_t seed, const uint8_t *data, size_t n);
};

/**
 * Stream strides B (bytes, widest first) of the hardware CRC32C: while
 * at least 3B bytes remain, three crc32 chains each walk B bytes side
 * by side, hiding the instruction's 3-cycle latency, and the first two
 * registers are then shifted by 2B and B bytes and folded into the
 * third. Below 3 * the narrowest stride one chain finishes the buffer.
 */
inline constexpr size_t kCrc32cStreamStrides[] = {4096, 256};

/** The portable scalar backend (always available). */
const KernelOps &scalarKernels();

/** The AVX2 backend, or nullptr when this CPU does not support AVX2. */
const KernelOps *avx2Kernels();

/**
 * The AVX-512 backend (vpcompressd/vpexpandd), or nullptr when this CPU
 * lacks AVX512F/BW/VL.
 */
const KernelOps *avx512Kernels();

/**
 * The backend every codec uses by default, selected once at startup:
 * CDMA_KERNEL_BACKEND if set (fatal() on an unknown or unsupported
 * name), otherwise the widest CPUID-supported backend.
 */
const KernelOps &activeKernels();

/**
 * Backend by name ("scalar", "avx2", "avx512"); nullptr if
 * unknown/unsupported.
 */
const KernelOps *kernelsByName(std::string_view name);

/**
 * Every backend this CPU supports, scalar first, widest last (for
 * sweeps/tests; activeKernels() picks back() when unforced).
 */
std::vector<const KernelOps *> supportedKernels();

/**
 * Comma-separated names of every backend this CPU supports (e.g.
 * "scalar, avx2, avx512") — the valid CDMA_KERNEL_BACKEND values, used
 * by the override rejection message.
 */
std::string supportedKernelNames();

/**
 * Resolve a CDMA_KERNEL_BACKEND override value without dying: returns
 * the backend, or nullptr with @p error (when non-null) set to the
 * message activeKernels() would fatal() with — naming the rejected
 * value and listing the backends this host supports. This is the
 * selection logic behind the env override, factored out so tests can
 * cover acceptance and rejection in-process.
 */
const KernelOps *resolveKernelBackendOverride(std::string_view name,
                                              std::string *error = nullptr);

} // namespace cdma

#endif // CDMA_COMPRESS_KERNELS_KERNELS_HH
