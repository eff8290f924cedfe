/**
 * @file
 * AVX-512 kernel backend. The ZVC primitives stop simulating the
 * hardware shift network and *use* it: `vpcompressd` performs the
 * mask-driven left-pack of a 16-word sub-block in one instruction (no
 * shuffle table — the 2 KB AVX2 lookup disappears), and `vpexpandd` is
 * its exact inverse for the prefetch-side scatter, with the masked
 * expand-load keeping every access inside the live payload bytes.
 * Mask formation is `vptestmd`/`vpcmpeqd` into mask registers (no
 * movemask round trip through the integer file), run scans and match
 * extension stride 64 bytes per probe with a mask-register test
 * (`kortest`) as the early exit, and the byte-sink ops use unaligned
 * 512-bit loads/stores with a scalar tail. Sub-16-word tails ride
 * masked loads/stores instead of scalar loops, so even a 9-word group
 * is a single masked op.
 *
 * Compiled with per-function target attributes so the translation unit
 * builds on any x86-64 toolchain regardless of -march; whether the code
 * ever runs is a CPUID decision made in dispatch.cc (AVX512F for the
 * dword ops, AVX512BW for the byte-granular compares).
 *
 * Output contract: byte-identical to the scalar backend for every op.
 */

#include "compress/kernels/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstring>

namespace cdma {

namespace {

#define CDMA_AVX512 __attribute__((target("avx512f,avx512bw,avx512vl")))

/** Lane mask of the first min(@p words, 16) words of a sub-block. */
constexpr __mmask16
liveLanes(uint32_t words)
{
    return static_cast<__mmask16>(words >= 16 ? 0xFFFFu
                                              : (1u << words) - 1u);
}

/**
 * Left-pack of one full 16-word sub-block: vptestmd forms the non-zero
 * mask, vpcompressd packs the lanes in a register, and one unmasked
 * 64-byte store lets the write pointer lag by the zero words (the
 * compressedBound headroom covers it), so no masked store is needed.
 */
CDMA_AVX512 inline uint32_t
compactBlock(const uint8_t *src, uint8_t *&dst)
{
    const __m512i v = _mm512_loadu_si512(src);
    const __mmask16 nz = _mm512_test_epi32_mask(v, v);
    _mm512_storeu_si512(dst, _mm512_maskz_compress_epi32(nz, v));
    dst += 4 * std::popcount(static_cast<uint32_t>(nz));
    return nz;
}

/**
 * Left-pack of a short sub-block (1..15 words): the masked load keeps
 * the read inside the window and the masked store writes only the live
 * words, since a short block has no headroom of its own.
 */
CDMA_AVX512 inline uint32_t
compactShortBlock(const uint8_t *src, uint32_t words, uint8_t *&dst)
{
    const __m512i v = _mm512_maskz_loadu_epi32(liveLanes(words), src);
    const __mmask16 nz = _mm512_test_epi32_mask(v, v);
    const auto count =
        static_cast<unsigned>(std::popcount(static_cast<uint32_t>(nz)));
    _mm512_mask_storeu_epi32(dst, liveLanes(count),
                             _mm512_maskz_compress_epi32(nz, v));
    dst += 4 * count;
    return nz;
}

CDMA_AVX512 size_t
zvcCompressWindowAvx512(const uint8_t *src, size_t bytes, uint8_t *dst)
{
    const size_t words = bytes / 4;
    uint8_t *const start = dst;
    size_t w = 0;
    // Full 32-word groups: two 16-word sub-blocks, branch-free.
    for (; w + 32 <= words; w += 32) {
        uint8_t *mask_pos = dst;
        dst += 4;
        const uint32_t lo = compactBlock(src + w * 4, dst);
        const uint32_t hi = compactBlock(src + w * 4 + 64, dst);
        const uint32_t mask = lo | hi << 16;
        std::memcpy(mask_pos, &mask, 4);
    }
    // The window's short last group (1..31 words).
    if (w < words) {
        const auto left = static_cast<uint32_t>(words - w);
        uint8_t *mask_pos = dst;
        dst += 4;
        uint32_t mask = 0;
        if (left >= 16) {
            mask = compactBlock(src + w * 4, dst);
            if (left > 16) {
                mask |= compactShortBlock(src + w * 4 + 64, left - 16, dst)
                    << 16;
            }
        } else {
            mask = compactShortBlock(src + w * 4, left, dst);
        }
        std::memcpy(mask_pos, &mask, 4);
    }
    const size_t tail = bytes % 4;
    if (tail != 0)
        std::memcpy(dst, src + words * 4, tail);
    return static_cast<size_t>(dst - start) + tail;
}

/**
 * Scatter of one sub-block of up to 16 words under @p live: vpexpandd
 * with a zeroing mask is the whole scatter — payload words route to
 * their mask positions, clear lanes become the zeros. The expand-load
 * touches exactly the 4 * popcount(m) live payload bytes (disabled
 * lanes are never accessed); full sub-blocks are a plain 64-byte copy,
 * which beats vpexpandd's cross-lane routing.
 */
CDMA_AVX512 inline void
expandBlock(const uint8_t *&src, uint32_t m, __mmask16 live, uint8_t *dst)
{
    const auto mask = static_cast<__mmask16>(m);
    if (live == 0xFFFFu) {
        _mm512_storeu_si512(
            dst, mask == 0xFFFFu ? _mm512_loadu_si512(src)
                                 : _mm512_maskz_expandloadu_epi32(mask, src));
    } else {
        _mm512_mask_storeu_epi32(dst, live,
                                 _mm512_maskz_expandloadu_epi32(mask, src));
    }
    src += 4 * std::popcount(m);
}

CDMA_AVX512 ZvcExpandResult
zvcExpandWindowAvx512(const uint8_t *src, size_t payload_bytes,
                      size_t original_bytes, uint8_t *dst)
{
    using Fault = ZvcExpandResult::Fault;
    const size_t words = original_bytes / 4;
    size_t cursor = 0;
    for (size_t w = 0; w < words; w += 32) {
        const auto group =
            static_cast<uint32_t>(std::min<size_t>(32, words - w));
        if (payload_bytes - cursor < 4)
            return {Fault::MaskTruncated, cursor, 0};
        uint32_t mask;
        std::memcpy(&mask, src + cursor, 4);
        cursor += 4;
        if (group < 32)
            mask &= (1u << group) - 1u;
        const auto present = static_cast<uint32_t>(std::popcount(mask));
        if (payload_bytes - cursor < size_t{4} * present)
            return {Fault::DataTruncated, cursor, present};
        const uint8_t *packed = src + cursor;
        uint8_t *out = dst + w * 4;
        // Pull the output lines eight groups ahead into L1: once the
        // window spills past the caches, every store would otherwise
        // stall on its line (a 64 MB expand ran ~10% slower without).
        _mm_prefetch(reinterpret_cast<const char *>(out + 1024),
                     _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char *>(out + 1088),
                     _MM_HINT_T0);
        expandBlock(packed, mask & 0xFFFFu, liveLanes(group), out);
        if (group > 16)
            expandBlock(packed, mask >> 16, liveLanes(group - 16), out + 64);
        cursor += size_t{4} * present;
    }
    const size_t tail = original_bytes % 4;
    if (payload_bytes - cursor < tail)
        return {Fault::TailTruncated, cursor, 0};
    if (tail != 0)
        std::memcpy(dst + words * 4, src + cursor, tail);
    cursor += tail;
    if (cursor != payload_bytes)
        return {Fault::TrailingBytes, cursor, 0};
    return {Fault::None, cursor, 0};
}

CDMA_AVX512 uint64_t
zeroRunWordsAvx512(const uint8_t *words, uint64_t limit)
{
    uint64_t run = 0;
    while (run + 16 <= limit) {
        const __m512i v = _mm512_loadu_si512(words + run * 4);
        // vptestmd + kortest: the mask-register test is the early exit,
        // and the same mask pinpoints the first non-zero word.
        const __mmask16 nz = _mm512_test_epi32_mask(v, v);
        if (nz != 0) {
            return run + static_cast<uint64_t>(
                std::countr_zero(static_cast<uint32_t>(nz)));
        }
        run += 16;
    }
    if (run < limit) {
        const __mmask16 live = static_cast<__mmask16>(
            (1u << (limit - run)) - 1u);
        const __m512i v =
            _mm512_maskz_loadu_epi32(live, words + run * 4);
        const __mmask16 nz = _mm512_test_epi32_mask(v, v);
        if (nz != 0) {
            return run + static_cast<uint64_t>(
                std::countr_zero(static_cast<uint32_t>(nz)));
        }
    }
    return limit;
}

CDMA_AVX512 uint64_t
literalRunWordsAvx512(const uint8_t *words, uint64_t limit)
{
    const __m512i zero = _mm512_setzero_si512();
    uint64_t run = 0;
    while (run + 16 <= limit) {
        const __m512i v = _mm512_loadu_si512(words + run * 4);
        const __mmask16 zm = _mm512_cmpeq_epi32_mask(v, zero);
        if (zm != 0) {
            return run + static_cast<uint64_t>(
                std::countr_zero(static_cast<uint32_t>(zm)));
        }
        run += 16;
    }
    if (run < limit) {
        const __mmask16 live = static_cast<__mmask16>(
            (1u << (limit - run)) - 1u);
        const __m512i v =
            _mm512_maskz_loadu_epi32(live, words + run * 4);
        // Compare only the live lanes: the zeroed disabled lanes would
        // otherwise read as (phantom) zero words past the limit.
        const __mmask16 zm =
            _mm512_mask_cmpeq_epi32_mask(live, v, zero);
        if (zm != 0) {
            return run + static_cast<uint64_t>(
                std::countr_zero(static_cast<uint32_t>(zm)));
        }
    }
    return limit;
}

CDMA_AVX512 size_t
matchLengthAvx512(const uint8_t *a, const uint8_t *b, size_t max)
{
    size_t len = 0;
    while (len + 64 <= max) {
        const __m512i x = _mm512_loadu_si512(a + len);
        const __m512i y = _mm512_loadu_si512(b + len);
        // vpcmpb into a 64-bit mask register; kortest is the all-equal
        // early exit and countr_zero the first-diverging byte.
        const __mmask64 neq = _mm512_cmpneq_epi8_mask(x, y);
        if (neq != 0) {
            return len + static_cast<size_t>(
                std::countr_zero(static_cast<uint64_t>(neq)));
        }
        len += 64;
    }
    if (len < max) {
        const __mmask64 live =
            (~static_cast<uint64_t>(0)) >> (64 - (max - len));
        const __m512i x = _mm512_maskz_loadu_epi8(live, a + len);
        const __m512i y = _mm512_maskz_loadu_epi8(live, b + len);
        const __mmask64 neq = _mm512_mask_cmpneq_epi8_mask(live, x, y);
        if (neq != 0) {
            return len + static_cast<size_t>(
                std::countr_zero(static_cast<uint64_t>(neq)));
        }
    }
    return max;
}

/**
 * Above this size the libc memcpy/memset (rep-movs/ERMS fast strings on
 * modern x86) beats an explicit vector loop; below it the vector loop
 * skips the libc dispatch and ERMS startup cost. Same threshold the
 * AVX2 backend settled on — the crossover is a property of the string
 * hardware, not the vector width.
 */
constexpr size_t kBulkLibcBytes = 2048;

CDMA_AVX512 void
copyBytesAvx512(uint8_t *dst, const uint8_t *src, size_t n)
{
    // One unaligned 512-bit load/store pair per 64 bytes for the
    // literal-run / raw-tail sizes the codecs emit; small tails stay
    // with memcpy (inlined moves) and page-class runs go back to libc's
    // fast-string path.
    if (n >= kBulkLibcBytes) {
        std::memcpy(dst, src, n);
        return;
    }
    size_t i = 0;
    while (i + 64 <= n) {
        _mm512_storeu_si512(dst + i, _mm512_loadu_si512(src + i));
        i += 64;
    }
    if (i < n)
        std::memcpy(dst + i, src + i, n - i);
}

CDMA_AVX512 void
zeroFillBytesAvx512(uint8_t *dst, size_t n)
{
    // 64-byte zero stores for the run-reconstruction sizes the codecs
    // emit; small fills stay with memset and page-class zero runs go
    // back to libc's fast-string path.
    if (n >= kBulkLibcBytes) {
        std::memset(dst, 0, n);
        return;
    }
    const __m512i zero = _mm512_setzero_si512();
    size_t i = 0;
    while (i + 64 <= n) {
        _mm512_storeu_si512(dst + i, zero);
        i += 64;
    }
    if (i < n)
        std::memset(dst + i, 0, n - i);
}

#undef CDMA_AVX512

} // namespace

const KernelOps *
avx512Kernels()
{
    // F covers the dword compress/expand/test ops, BW the byte-granular
    // match compare, VL the EVEX forms the compiler may pick for
    // intermediates. Every such part also has AVX2+SSE4.2, so the
    // hardware CRC32C is shared with the AVX2 table — it is the same
    // instruction either way.
    static const bool supported = __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") && avx2Kernels() != nullptr;
    if (!supported)
        return nullptr;
    static const KernelOps ops = {
        "avx512",
        zvcCompressWindowAvx512,
        zvcExpandWindowAvx512,
        zeroRunWordsAvx512,
        literalRunWordsAvx512,
        matchLengthAvx512,
        copyBytesAvx512,
        zeroFillBytesAvx512,
        avx2Kernels()->crc32,
    };
    return &ops;
}

} // namespace cdma

#else // !x86

namespace cdma {

const KernelOps *
avx512Kernels()
{
    return nullptr;
}

} // namespace cdma

#endif
