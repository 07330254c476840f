#include "video/codec/mc.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "video/codec/kernel_dispatch.h"

namespace wsva::video::codec {

namespace {

// AVX2 SAD: _mm256_sad_epu8 sums 32 pixels into four 64-bit lanes, so
// one load covers two 16-pixel rows or four 8-pixel rows.

WSVA_TARGET_AVX2 inline uint32_t
laneSum(__m256i sad)
{
    const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(sad),
                                    _mm256_extracti128_si256(sad, 1));
    return static_cast<uint32_t>(
        _mm_cvtsi128_si32(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s))));
}

/** 32 pixels of @p N-pixel rows starting at @p p, row stride @p stride. */
template <int N>
WSVA_TARGET_AVX2 inline __m256i
loadRows(const uint8_t *p, int stride)
{
    // Pointer arithmetic only: the lambda runs no AVX2 code.
    const auto row = [p, stride](int r) {
        return reinterpret_cast<const __m128i *>(p + r * stride);
    };
    __m128i lo;
    __m128i hi;
    if constexpr (N == 16) {
        lo = _mm_loadu_si128(row(0));
        hi = _mm_loadu_si128(row(1));
    } else {
        static_assert(N == 8);
        lo = _mm_unpacklo_epi64(_mm_loadl_epi64(row(0)),
                                _mm_loadl_epi64(row(1)));
        hi = _mm_unpacklo_epi64(_mm_loadl_epi64(row(2)),
                                _mm_loadl_epi64(row(3)));
    }
    return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
}

/**
 * SAD of an N x N block @p a (row stride N) against @p b (row stride
 * @p stride). Bounded, it returns once the running sum reaches
 * @p bound: exact below @p bound, >= @p bound otherwise.
 */
template <int N, bool Bounded>
WSVA_TARGET_AVX2 uint32_t
sadRowsAvx2(const uint8_t *a, const uint8_t *b, int stride, uint32_t bound)
{
    constexpr int kRowsPerLoad = 32 / N;
    __m256i acc = _mm256_setzero_si256();
    for (int r = 0; r < N; r += kRowsPerLoad) {
        const __m256i pa =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + r * N));
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(pa, loadRows<N>(b + r * stride, stride)));
        if constexpr (Bounded) {
            const uint32_t sum = laneSum(acc);
            if (sum >= bound)
                return sum;
        }
    }
    return laneSum(acc);
}

/** The AVX2 SAD for 8- and 16-pixel blocks; false for other sizes. */
template <bool Bounded>
bool
sadAvx2(const uint8_t *a, const uint8_t *b, int stride, int n,
        uint32_t bound, uint32_t &sad)
{
    if (!avx2Kernels())
        return false;
    if (n == 16)
        sad = sadRowsAvx2<16, Bounded>(a, b, stride, bound);
    else if (n == 8)
        sad = sadRowsAvx2<8, Bounded>(a, b, stride, bound);
    else
        return false;
    return true;
}

// The half-pel filters run in SSE2, the x86-64 baseline, on whole
// W-pixel rows (W = n = 16, 8 or 4), and have no scalar twin:
// _mm_avg_epu8 is exactly (a + b + 1) >> 1, and the 2-D tap's sums of
// four pixels (at most 1,022 with the rounding) fit in int16 lanes.

/** W pixels at @p p in a register's low bytes. */
template <int W>
inline __m128i
loadPixels(const uint8_t *p)
{
    if constexpr (W == 16) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    } else if constexpr (W == 8) {
        return _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
    } else {
        static_assert(W == 4);
        int32_t v = 0;
        std::memcpy(&v, p, sizeof(v));
        return _mm_cvtsi32_si128(v);
    }
}

/** Store the low W bytes of @p v at @p p. */
template <int W>
inline void
storePixels(uint8_t *p, __m128i v)
{
    if constexpr (W == 16) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
    } else if constexpr (W == 8) {
        _mm_storel_epi64(reinterpret_cast<__m128i *>(p), v);
    } else {
        static_assert(W == 4);
        const int32_t bits = _mm_cvtsi128_si32(v);
        std::memcpy(p, &bits, sizeof(bits));
    }
}

/** p[c] + p[c + 1] over a row's W columns, in int16 lanes: columns
 *  0-7 in lo, 8-15 in hi (zero unless W = 16). */
struct PairSums
{
    __m128i lo;
    __m128i hi;
};

/** The row's PairSums. The load at p + 1 reads the window's last
 *  column and no further. */
template <int W>
inline PairSums
pairSums(const uint8_t *p)
{
    const __m128i zero = _mm_setzero_si128();
    const __m128i a = loadPixels<W>(p);
    const __m128i b = loadPixels<W>(p + 1);
    PairSums s{_mm_add_epi16(_mm_unpacklo_epi8(a, zero),
                             _mm_unpacklo_epi8(b, zero)),
               zero};
    if constexpr (W == 16) {
        s.hi = _mm_add_epi16(_mm_unpackhi_epi8(a, zero),
                             _mm_unpackhi_epi8(b, zero));
    }
    return s;
}

/**
 * The half-pel filter of a W x W block over its (W+1) x (W+1) window
 * @p p (row stride @p stride) into @p out (row stride W).
 */
template <int W>
void
halfPelBlock(const uint8_t *p, int stride, bool half_x, bool half_y,
             uint8_t *out)
{
    if (half_x && half_y) {
        // (p00 + p01 + p10 + p11 + 2) >> 2. Window row r + 1's pair
        // sums serve output rows r and r + 1.
        const __m128i two = _mm_set1_epi16(2);
        PairSums top = pairSums<W>(p);
        for (int r = 0; r < W; ++r) {
            const PairSums bottom = pairSums<W>(p + (r + 1) * stride);
            const __m128i lo = _mm_srli_epi16(
                _mm_add_epi16(_mm_add_epi16(top.lo, bottom.lo), two), 2);
            const __m128i hi = _mm_srli_epi16(
                _mm_add_epi16(_mm_add_epi16(top.hi, bottom.hi), two), 2);
            storePixels<W>(out + r * W, _mm_packus_epi16(lo, hi));
            top = bottom;
        }
        return;
    }
    // One direction: average each pixel with its right or lower
    // neighbour.
    const int tap = half_x ? 1 : stride;
    for (int r = 0; r < W; ++r) {
        const uint8_t *p0 = p + r * stride;
        storePixels<W>(out + r * W, _mm_avg_epu8(loadPixels<W>(p0),
                                                 loadPixels<W>(p0 + tap)));
    }
}

} // namespace

void
emulateEdge(const Plane &src, int x, int y, int w, int h, uint8_t *out)
{
    const int max_x = src.width() - 1;
    const int max_y = src.height() - 1;
    for (int r = 0; r < h; ++r) {
        const uint8_t *row = src.row(std::clamp(y + r, 0, max_y));
        for (int c = 0; c < w; ++c)
            out[r * w + c] = row[std::clamp(x + c, 0, max_x)];
    }
}

void
extractBlock(const Plane &src, int x, int y, int n, uint8_t *out)
{
    fetchPatch(src, x, y, n, n, out);
}

void
motionCompensate(const Plane &ref, int x, int y, int n, Mv mv, uint8_t *out)
{
    WSVA_ASSERT(n == 4 || n == 8 || n == 16, "MC block size %d", n);
    const int ix = x + (mv.x >> 1);
    const int iy = y + (mv.y >> 1);
    const bool half_x = mv.x & 1;
    const bool half_y = mv.y & 1;

    if (!half_x && !half_y) {
        fetchPatch(ref, ix, iy, n, n, out);
        return;
    }

    // Bilinear half-pel over an (n+1) x (n+1) window, read in place.
    uint8_t scratch[17 * 17];
    int stride = 0;
    const uint8_t *p = readWindow(ref, ix, iy, n + 1, n + 1, scratch, stride);
    if (n == 16)
        halfPelBlock<16>(p, stride, half_x, half_y, out);
    else if (n == 8)
        halfPelBlock<8>(p, stride, half_x, half_y, out);
    else
        halfPelBlock<4>(p, stride, half_x, half_y, out);
}

uint32_t
blockSad(const uint8_t *a, const uint8_t *b, int n)
{
    uint32_t sad = 0;
    if (sadAvx2<false>(a, b, n, n, 0, sad))
        return sad;
    uint32_t acc = 0;
    const int count = n * n;
    for (int i = 0; i < count; ++i)
        acc += static_cast<uint32_t>(std::abs(int(a[i]) - int(b[i])));
    return acc;
}

uint32_t
blockSadBounded(const uint8_t *a, const uint8_t *b, int n, uint32_t bound)
{
    uint32_t sad = 0;
    if (sadAvx2<true>(a, b, n, n, bound, sad))
        return sad;
    uint32_t acc = 0;
    for (int r = 0; r < n; ++r) {
        const uint8_t *pa = a + r * n;
        const uint8_t *pb = b + r * n;
        for (int c = 0; c < n; ++c)
            acc += static_cast<uint32_t>(
                std::abs(int(pa[c]) - int(pb[c])));
        if (acc >= bound)
            return acc;
    }
    return acc;
}

uint32_t
sadAgainstBlock(const uint8_t *cur, const Plane &ref, int rx, int ry,
                int n, uint32_t bound)
{
    WSVA_ASSERT(n <= 64, "SAD block too large");
    uint8_t scratch[64 * 64];
    int stride = 0;
    const uint8_t *p = readWindow(ref, rx, ry, n, n, scratch, stride);
    uint32_t sad = 0;
    if (sadAvx2<true>(cur, p, stride, n, bound, sad))
        return sad;
    uint32_t acc = 0;
    for (int r = 0; r < n; ++r) {
        const uint8_t *s = cur + r * n;
        const uint8_t *q = p + r * stride;
        for (int c = 0; c < n; ++c)
            acc += static_cast<uint32_t>(std::abs(int(s[c]) - int(q[c])));
        if (acc >= bound)
            return acc;
    }
    return acc;
}

uint32_t
sadAt(const Plane &src, const Plane &ref, int x, int y, int n, int dx,
      int dy)
{
    WSVA_ASSERT(n <= 64, "SAD block too large");
    uint8_t src_scratch[64 * 64];
    uint8_t ref_scratch[64 * 64];
    int src_stride = 0;
    int ref_stride = 0;
    const uint8_t *s =
        readWindow(src, x, y, n, n, src_scratch, src_stride);
    const uint8_t *p =
        readWindow(ref, x + dx, y + dy, n, n, ref_scratch, ref_stride);
    uint32_t acc = 0;
    for (int r = 0; r < n; ++r) {
        const uint8_t *sr = s + r * src_stride;
        const uint8_t *pr = p + r * ref_stride;
        for (int c = 0; c < n; ++c)
            acc += static_cast<uint32_t>(std::abs(int(sr[c]) - int(pr[c])));
    }
    return acc;
}

} // namespace wsva::video::codec
