/**
 * @file
 * AVX2 kernel backend: vpcmpeqd mask formation with movemask extraction,
 * shuffle-table left-packing through vpermd (the 8-lane analogue of the
 * hardware shift network — one table lookup replaces the prefix sum),
 * the inverse expand table for the prefetch-side mask scatter (vpermd
 * again, with vpmaskmovd keeping loads near the payload end inside the
 * payload), 256-bit strides for the run scans and match extension, and
 * the three-stream SSE4.2 CRC32C. Compiled
 * with per-function target attributes so the translation unit builds on
 * any x86-64 toolchain regardless of -march; whether the code ever runs
 * is a CPUID decision made in dispatch.cc.
 *
 * Output contract: byte-identical to the scalar backend for every op.
 */

#include "compress/kernels/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <iterator>

namespace cdma {

namespace {

#define CDMA_AVX2 __attribute__((target("avx2")))

/**
 * Left-pack shuffle table: row m holds, for an 8-bit non-zero mask m,
 * the dword indices of the set bits in ascending order (unused entries
 * point at lane 0 and are never read — the write pointer only advances
 * by popcount). Stored as bytes and widened with vpmovzxbd at use, so
 * the whole table is 2 KB and stays resident in L1.
 */
constexpr std::array<std::array<uint8_t, 8>, 256>
makeLeftPackTable()
{
    std::array<std::array<uint8_t, 8>, 256> table{};
    for (int mask = 0; mask < 256; ++mask) {
        int out = 0;
        for (int lane = 0; lane < 8; ++lane) {
            if (mask & (1 << lane))
                table[static_cast<size_t>(mask)]
                     [static_cast<size_t>(out++)] =
                    static_cast<uint8_t>(lane);
        }
    }
    return table;
}

constexpr auto kLeftPack = makeLeftPackTable();

/**
 * Inverse (expand) shuffle table: row m holds, for an 8-bit non-zero
 * mask m, the *packed-payload* index each output lane reads from — the
 * exclusive prefix popcount of m at that lane (unset lanes point at
 * payload word 0 and are zeroed after the permute). Same 2 KB byte
 * layout as kLeftPack, widened with vpmovzxbd at use.
 */
constexpr std::array<std::array<uint8_t, 8>, 256>
makeExpandTable()
{
    std::array<std::array<uint8_t, 8>, 256> table{};
    for (int mask = 0; mask < 256; ++mask) {
        int packed = 0;
        for (int lane = 0; lane < 8; ++lane) {
            table[static_cast<size_t>(mask)][static_cast<size_t>(lane)] =
                static_cast<uint8_t>(packed);
            if (mask & (1 << lane))
                ++packed;
        }
    }
    return table;
}

constexpr auto kExpand = makeExpandTable();

inline uint32_t
loadWord(const uint8_t *p)
{
    uint32_t value;
    std::memcpy(&value, p, sizeof(value));
    return value;
}

/** Shuffle-table left-pack of one group of 1..32 words; returns the mask. */
CDMA_AVX2 inline uint32_t
compactGroup(const uint8_t *src, uint32_t words, uint8_t *dst)
{
    const __m256i zero = _mm256_setzero_si256();
    uint32_t mask = 0;
    uint32_t w = 0;
    while (w + 8 <= words) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + w * 4));
        // vpcmpeqd against zero, movemask -> 8-bit zero mask; invert for
        // the non-zero lanes.
        const __m256i eq = _mm256_cmpeq_epi32(v, zero);
        const uint32_t nz = ~static_cast<uint32_t>(_mm256_movemask_ps(
                                _mm256_castsi256_ps(eq))) &
            0xFFu;
        // All-zero sub-blocks (the common case in sparse activation
        // pages) emit nothing: skip the permute/store and move on at
        // load bandwidth, exactly like the scalar backend's OR-skip.
        if (nz == 0) {
            w += 8;
            continue;
        }
        // Shuffle-table left-pack: gather the non-zero lanes to the
        // front with one vpermd, store all 8 lanes unconditionally, and
        // advance the write pointer by the live bytes only.
        const __m128i packed_idx = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(kLeftPack[nz].data()));
        const __m256i idx = _mm256_cvtepu8_epi32(packed_idx);
        const __m256i packed = _mm256_permutevar8x32_epi32(v, idx);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), packed);
        dst += 4u * static_cast<uint32_t>(std::popcount(nz));
        mask |= nz << w;
        w += 8;
    }
    // Sub-block tail (groups shorter than 8 words): branchless scalar,
    // same emission order, so the output stays byte-identical.
    for (; w < words; ++w) {
        const uint32_t value = loadWord(src + w * 4);
        std::memcpy(dst, &value, 4);
        const uint32_t nzw = value != 0;
        dst += nzw * 4;
        mask |= nzw << w;
    }
    return mask;
}

CDMA_AVX2 size_t
zvcCompressWindowAvx2(const uint8_t *src, size_t bytes, uint8_t *dst)
{
    const size_t words = bytes / 4;
    uint8_t *const start = dst;
    for (size_t w = 0; w < words; w += 32) {
        const auto group =
            static_cast<uint32_t>(std::min<size_t>(32, words - w));
        const uint32_t mask = compactGroup(src + w * 4, group, dst + 4);
        std::memcpy(dst, &mask, 4);
        dst += 4 + 4 * std::popcount(mask);
    }
    const size_t tail = bytes % 4;
    if (tail != 0)
        std::memcpy(dst, src + words * 4, tail);
    return static_cast<size_t>(dst - start) + tail;
}

/**
 * Inverse shuffle-table scatter of one group of 1..32 words whose
 * 4 * popcount(mask) payload bytes at @p src have been bounds-checked;
 * @p end is the end of the window's payload, so an 8-word sub-block
 * loads its packed words with one plain 32-byte load whenever that
 * stays inside the payload, and through vpmaskmovd (disabled lanes are
 * never accessed) at the very end of the stream.
 */
CDMA_AVX2 inline void
expandGroup(const uint8_t *src, const uint8_t *end, uint32_t mask,
            uint32_t words, uint8_t *dst)
{
    const __m256i lane_bit =
        _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i lane_index =
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    uint32_t w = 0;
    while (w + 8 <= words) {
        const uint32_t m = (mask >> w) & 0xFFu;
        // All-zero sub-blocks store the zero vector and touch no
        // payload — the common case in sparse activation pages runs at
        // store bandwidth.
        if (m == 0) {
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + w * 4),
                                _mm256_setzero_si256());
            w += 8;
            continue;
        }
        const uint32_t count = static_cast<uint32_t>(std::popcount(m));
        const __m256i packed = end - src >= 32
            ? _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src))
            : _mm256_maskload_epi32(
                  reinterpret_cast<const int *>(src),
                  _mm256_cmpgt_epi32(
                      _mm256_set1_epi32(static_cast<int>(count)),
                      lane_index));
        // Inverse shuffle-table lookup: one vpermd routes payload word
        // prefix-popcount(m, lane) to every lane, then the mask's zero
        // lanes are blanked — the software mirror of the DPE's scatter
        // network. Full sub-blocks skip both.
        __m256i scattered = packed;
        if (m != 0xFFu) {
            const __m128i packed_idx = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(kExpand[m].data()));
            const __m256i idx = _mm256_cvtepu8_epi32(packed_idx);
            const __m256i keep = _mm256_cmpeq_epi32(
                _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(m)),
                                 lane_bit),
                lane_bit);
            scattered = _mm256_and_si256(
                _mm256_permutevar8x32_epi32(packed, idx), keep);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + w * 4),
                            scattered);
        src += count * 4;
        w += 8;
    }
    // Sub-block tail (groups shorter than 8 words): scalar scatter.
    for (; w < words; ++w) {
        uint32_t value = 0;
        if (mask & (1u << w)) {
            std::memcpy(&value, src, 4);
            src += 4;
        }
        std::memcpy(dst + w * 4, &value, 4);
    }
}

CDMA_AVX2 ZvcExpandResult
zvcExpandWindowAvx2(const uint8_t *src, size_t payload_bytes,
                    size_t original_bytes, uint8_t *dst)
{
    using Fault = ZvcExpandResult::Fault;
    const uint8_t *const end = src + payload_bytes;
    const size_t words = original_bytes / 4;
    size_t cursor = 0;
    for (size_t w = 0; w < words; w += 32) {
        const auto group =
            static_cast<uint32_t>(std::min<size_t>(32, words - w));
        if (payload_bytes - cursor < 4)
            return {Fault::MaskTruncated, cursor, 0};
        uint32_t mask = loadWord(src + cursor);
        cursor += 4;
        if (group < 32)
            mask &= (1u << group) - 1u;
        const auto present = static_cast<uint32_t>(std::popcount(mask));
        if (payload_bytes - cursor < size_t{4} * present)
            return {Fault::DataTruncated, cursor, present};
        expandGroup(src + cursor, end, mask, group, dst + w * 4);
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

CDMA_AVX2 uint64_t
zeroRunWordsAvx2(const uint8_t *words, uint64_t limit)
{
    uint64_t run = 0;
    while (run + 8 <= limit) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + run * 4));
        if (!_mm256_testz_si256(v, v))
            break;
        run += 8;
    }
    while (run < limit && loadWord(words + run * 4) == 0)
        ++run;
    return run;
}

CDMA_AVX2 uint64_t
literalRunWordsAvx2(const uint8_t *words, uint64_t limit)
{
    const __m256i zero = _mm256_setzero_si256();
    uint64_t run = 0;
    while (run + 8 <= limit) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + run * 4));
        const uint32_t zm = static_cast<uint32_t>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zero))));
        if (zm != 0)
            return run + static_cast<uint64_t>(std::countr_zero(zm));
        run += 8;
    }
    while (run < limit && loadWord(words + run * 4) != 0)
        ++run;
    return run;
}

CDMA_AVX2 size_t
matchLengthAvx2(const uint8_t *a, const uint8_t *b, size_t max)
{
    size_t len = 0;
    while (len + 32 <= max) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + len));
        const __m256i y = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + len));
        const uint32_t eq = static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, y)));
        if (eq != 0xFFFFFFFFu) {
            return len + static_cast<size_t>(std::countr_zero(~eq));
        }
        len += 32;
    }
    while (len + 8 <= max) {
        uint64_t x, y;
        std::memcpy(&x, a + len, sizeof(x));
        std::memcpy(&y, b + len, sizeof(y));
        const uint64_t diff = x ^ y;
        if (diff != 0) {
            return len +
                static_cast<size_t>(std::countr_zero(diff)) / 8;
        }
        len += 8;
    }
    while (len < max && a[len] == b[len])
        ++len;
    return len;
}

/**
 * Above this size the libc memcpy/memset (rep-movs/ERMS fast strings on
 * modern x86) beats a 64-byte vector loop; below it the vector loop
 * skips the libc dispatch and ERMS startup cost. Matters mostly for
 * run *reconstruction*, where whole zero pages and page-long literal
 * runs are the common case at the paper's sparsity levels.
 */
constexpr size_t kBulkLibcBytes = 2048;

CDMA_AVX2 void
copyBytesAvx2(uint8_t *dst, const uint8_t *src, size_t n)
{
    // 64-byte unrolled copy for the literal-run / raw-tail sizes the
    // codecs emit; small copies stay with memcpy (inlined moves) and
    // page-class runs go back to libc's fast-string path.
    if (n >= kBulkLibcBytes) {
        std::memcpy(dst, src, n);
        return;
    }
    size_t i = 0;
    while (i + 64 <= n) {
        const __m256i lo = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        const __m256i hi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 32));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i + 32),
                            hi);
        i += 64;
    }
    if (i < n)
        std::memcpy(dst + i, src + i, n - i);
}

CDMA_AVX2 void
zeroFillBytesAvx2(uint8_t *dst, size_t n)
{
    // 64-byte zero stores for the run-reconstruction sizes the codecs
    // emit; small fills stay with memset (inlined moves) and
    // page-class zero runs go back to libc's fast-string path.
    if (n >= kBulkLibcBytes) {
        std::memset(dst, 0, n);
        return;
    }
    const __m256i zero = _mm256_setzero_si256();
    size_t i = 0;
    while (i + 64 <= n) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), zero);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i + 32),
                            zero);
        i += 64;
    }
    if (i < n)
        std::memset(dst + i, 0, n - i);
}

/**
 * CRC32C polynomial arithmetic for the stream merge, in the reflected
 * representation the crc32 instruction uses (bit 31 holds x^0): the
 * product a(x) * b(x) mod P, one shift-and-reduce step per bit of a.
 */
constexpr uint32_t
multModP(uint32_t a, uint32_t b)
{
    uint32_t product = 0;
    for (uint32_t bit = 1u << 31; bit != 0; bit >>= 1) {
        if (a & bit)
            product ^= b;
        b = (b & 1u) ? (b >> 1) ^ 0x82F63B78u : b >> 1;
    }
    return product;
}

/** x^n mod P, reflected, by square-and-multiply. */
constexpr uint32_t
xPowModP(uint64_t n)
{
    uint32_t result = 1u << 31; // x^0
    uint32_t square = 1u << 30; // x^1
    for (; n != 0; n >>= 1) {
        if (n & 1)
            result = multModP(result, square);
        square = multModP(square, square);
    }
    return result;
}

/**
 * Multiplier that shifts a CRC register past @p bytes zero bytes:
 * clmul(crc, K) is the 64-bit product x * crc(x) * K(x), and
 * crc32(0, product) multiplies by a further x^32 mod P, so
 * K = x^(8 * bytes - 33) mod P makes the pair equal to
 * crc(x) * x^(8 * bytes) mod P — the register after the zeros.
 */
constexpr uint32_t
shiftMultiplier(size_t bytes)
{
    return xPowModP(8 * static_cast<uint64_t>(bytes) - 33);
}

inline uint64_t
loadU64(const uint8_t *p)
{
    uint64_t value;
    std::memcpy(&value, p, sizeof(value));
    return value;
}

/**
 * Three crc32 chains over consecutive @p Stride-byte blocks while at
 * least 3 * Stride bytes remain. One chain is latency-bound (3 cycles
 * per 8 bytes); three independent ones keep the unit busy every cycle.
 * The registers of the first two blocks are then shifted past the
 * bytes that follow them (2 * Stride and Stride) with one PCLMULQDQ
 * each, folded into one crc32 reduction and merged into the third —
 * bit-identical to one chain over the same bytes.
 */
template <size_t Stride>
__attribute__((target("sse4.2,pclmul"))) inline uint64_t
crc32ThreeStreams(uint64_t crc, const uint8_t *&data, size_t &n)
{
    static_assert(Stride % 8 == 0 && Stride >= 8);
    constexpr uint32_t kShift2 = shiftMultiplier(2 * Stride);
    constexpr uint32_t kShift1 = shiftMultiplier(Stride);
    while (n >= 3 * Stride) {
        uint64_t c0 = crc, c1 = 0, c2 = 0;
        for (size_t i = 0; i < Stride; i += 8) {
            c0 = _mm_crc32_u64(c0, loadU64(data + i));
            c1 = _mm_crc32_u64(c1, loadU64(data + Stride + i));
            c2 = _mm_crc32_u64(c2, loadU64(data + 2 * Stride + i));
        }
        const __m128i p0 = _mm_clmulepi64_si128(
            _mm_cvtsi32_si128(static_cast<int>(c0)),
            _mm_cvtsi32_si128(static_cast<int>(kShift2)), 0x00);
        const __m128i p1 = _mm_clmulepi64_si128(
            _mm_cvtsi32_si128(static_cast<int>(c1)),
            _mm_cvtsi32_si128(static_cast<int>(kShift1)), 0x00);
        crc = c2 ^ _mm_crc32_u64(0, static_cast<uint64_t>(_mm_cvtsi128_si64(
                                        _mm_xor_si128(p0, p1))));
        data += 3 * Stride;
        n -= 3 * Stride;
    }
    return crc;
}

static_assert(std::size(kCrc32cStreamStrides) == 2,
              "crc32Hw runs every published stride");

/**
 * Hardware CRC32C: the SSE4.2 crc32 instruction retires 8 bytes per
 * issue (3-cycle latency, fully pipelined), run as three streams at
 * each of kCrc32cStreamStrides and finished by one chain. Every AVX2
 * part implements SSE4.2 and PCLMULQDQ, so this rides the same CPUID
 * gate as the rest of the backend; the per-function target keeps the
 * TU building regardless of -march.
 */
__attribute__((target("sse4.2,pclmul"))) uint32_t
crc32Hw(uint32_t seed, const uint8_t *data, size_t n)
{
    uint64_t crc = ~seed;
    crc = crc32ThreeStreams<kCrc32cStreamStrides[0]>(crc, data, n);
    crc = crc32ThreeStreams<kCrc32cStreamStrides[1]>(crc, data, n);
    for (; n >= 8; data += 8, n -= 8)
        crc = _mm_crc32_u64(crc, loadU64(data));
    for (; n != 0; ++data, --n)
        crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *data);
    return ~static_cast<uint32_t>(crc);
}

#undef CDMA_AVX2

} // namespace

const KernelOps *
avx2Kernels()
{
    static const KernelOps ops = {
        "avx2",
        zvcCompressWindowAvx2,
        zvcExpandWindowAvx2,
        zeroRunWordsAvx2,
        literalRunWordsAvx2,
        matchLengthAvx2,
        copyBytesAvx2,
        zeroFillBytesAvx2,
        crc32Hw,
    };
    // Every AVX2 part ships SSE4.2 and PCLMULQDQ, but the hardware CRC
    // makes the dependency explicit rather than assumed.
    static const bool supported = __builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("sse4.2") &&
        __builtin_cpu_supports("pclmul");
    return supported ? &ops : nullptr;
}

} // namespace cdma

#else // !x86

namespace cdma {

const KernelOps *
avx2Kernels()
{
    return nullptr;
}

} // namespace cdma

#endif
