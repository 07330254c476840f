#include "video/codec/mc.h"

#include <immintrin.h>

#include <algorithm>

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
    const int ix = x + (mv.x >> 1);
    const int iy = y + (mv.y >> 1);
    const bool half_x = mv.x & 1;
    const bool half_y = mv.y & 1;

    if (!half_x && !half_y) {
        fetchPatch(ref, ix, iy, n, n, out);
        return;
    }

    // Bilinear half-pel over an (n+1) x (n+1) window, read in place.
    WSVA_ASSERT(n <= 64, "MC block too large");
    uint8_t scratch[65 * 65];
    int stride = 0;
    const uint8_t *p = readWindow(ref, ix, iy, n + 1, n + 1, scratch, stride);
    for (int r = 0; r < n; ++r) {
        const uint8_t *p0 = p + r * stride;
        const uint8_t *p1 = p0 + stride;
        uint8_t *o = out + r * n;
        if (half_x && half_y) {
            for (int c = 0; c < n; ++c)
                o[c] = static_cast<uint8_t>(
                    (p0[c] + p0[c + 1] + p1[c] + p1[c + 1] + 2) >> 2);
        } else if (half_x) {
            for (int c = 0; c < n; ++c)
                o[c] = static_cast<uint8_t>((p0[c] + p0[c + 1] + 1) >> 1);
        } else {
            for (int c = 0; c < n; ++c)
                o[c] = static_cast<uint8_t>((p0[c] + p1[c] + 1) >> 1);
        }
    }
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

uint64_t
blockSse(const uint8_t *a, const uint8_t *b, int n)
{
    uint64_t acc = 0;
    const int count = n * n;
    for (int i = 0; i < count; ++i) {
        const int d = int(a[i]) - int(b[i]);
        acc += static_cast<uint64_t>(d * d);
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
