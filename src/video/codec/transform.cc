#include "video/codec/transform.h"

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/profiler.h"
#include "video/codec/kernel_dispatch.h"

namespace wsva::video::codec {

namespace {

constexpr int kBasisBits = 13; //!< Fixed-point scale of the DCT basis.
constexpr int kHalfTx = kTxSize / 2;
/** Stage 1 keeps its results at basis scale but bounded; stage 2's
 *  rounded shift removes what is left of both basis scales. */
constexpr int kStage1Shift = 6;
constexpr int kStage2Shift = 2 * kBasisBits - kStage1Shift;
constexpr int64_t kStage2Round = int64_t{1} << (kStage2Shift - 1);
/** Fixed-point scale of the quantizer's reciprocal step. */
constexpr int kQuantBits = 20;
/** The int32 forward DCT is exact up to this |residual| (DESIGN.md
 *  §4: at 256, stage 2 overflows). */
constexpr int32_t kInt32ForwardMaxInput = 255;
/** The int32 quantizer is exact up to this |coeff|, the forward
 *  DCT's largest output for |residual| <= 255, with an offset below
 *  2^kQuantBits. */
constexpr int32_t kInt32QuantMaxCoeff = 2040;
/** quantize's deadzone domain ends here (2^31): the int64 path's sums
 *  stay below 2^52. */
constexpr double kMaxDeadzone = 2147483648.0;

/** Integer DCT-II basis matrix, scaled by 2^kBasisBits. */
using Basis = int32_t[kTxSize][kTxSize];

struct DctTables
{
    Basis basis;
    int32_t max_basis = 0; //!< Largest |basis| entry.
    int32_t dequant[kMaxQp + 1];
    int64_t quant_scale[kMaxQp + 1]; //!< round(2^20 / dequant).
    double step[kMaxQp + 1];         //!< qstep(qp).

    // Out of line, so that tables() stays small enough to inline into
    // every kernel.
    __attribute__((noinline)) DctTables()
    {
        for (int u = 0; u < kTxSize; ++u) {
            const double a = u == 0 ? std::sqrt(1.0 / kTxSize)
                                    : std::sqrt(2.0 / kTxSize);
            for (int k = 0; k < kTxSize; ++k) {
                const double v =
                    a * std::cos((2 * k + 1) * u * M_PI / (2.0 * kTxSize));
                basis[u][k] = static_cast<int32_t>(
                    std::lround(v * (1 << kBasisBits)));
                max_basis = std::max(max_basis, std::abs(basis[u][k]));
            }
        }
        // The butterflies read only part of each basis row and are
        // exact only because rounding kept the row's symmetries.
        for (int u = 0; u < kTxSize; ++u) {
            for (int k = 0; k < kHalfTx; ++k) {
                const int32_t b = basis[u][k];
                WSVA_ASSERT(basis[u][kTxSize - 1 - k] == (u % 2 ? -b : b),
                            "DCT basis row %d is not even/odd", u);
                WSVA_ASSERT(u % 2 || basis[u][kHalfTx - 1 - k] ==
                                         (u / 2 % 2 ? -b : b),
                            "DCT basis row %d lost its inner symmetry", u);
            }
        }
        for (int qp = 0; qp <= kMaxQp; ++qp) {
            step[qp] = qstep(qp);
            dequant[qp] = std::max(1,
                static_cast<int>(std::lround(step[qp])));
            quant_scale[qp] = static_cast<int64_t>(std::lround(
                (1 << kQuantBits) / static_cast<double>(dequant[qp])));
        }
    }
};

const DctTables &
tables()
{
    static const DctTables t;
    return t;
}

/** The quantizer's rounding offset, in its fixed-point scale. */
int64_t
deadzoneOffset(double deadzone)
{
    WSVA_ASSERT(deadzone >= 0.0 && deadzone < kMaxDeadzone,
                "deadzone %g outside [0, 2^31)", deadzone);
    return static_cast<int64_t>(deadzone * (1 << kQuantBits));
}

/** True when quantize's int32 lanes are exact for this offset (and
 *  coefficients of at most kInt32QuantMaxCoeff in magnitude). */
bool
int32QuantOffset(int64_t offset)
{
    return offset >= 0 && offset < (int64_t{1} << kQuantBits);
}

/** One pass over a residual block: its per-column absolute sums (the
 *  zero bound's input) and its largest |x| (the int32 guard's). */
struct ResidualScan
{
    int32_t col_sum[kTxSize];
    int32_t max_abs;
};

ResidualScan
scanResidual(const ResidualBlock &residual)
{
    ResidualScan scan{};
    for (int k = 0; k < kTxSize; ++k) {
        for (int c = 0; c < kTxSize; ++c) {
            const int32_t a = std::abs(static_cast<int32_t>(
                residual[static_cast<size_t>(k * kTxSize + c)]));
            scan.col_sum[c] += a;
            scan.max_abs = std::max(scan.max_abs, a);
        }
    }
    return scan;
}

/**
 * B + 2^19, where B bounds the magnitude of a two-stage transform's
 * stage-2 sums, from the per-column absolute sums S_c of its input
 * (each below 2^28). With M the largest |basis| entry, stage 1's sums
 * are at most M * S_c, so |tmp[u][c]| <= ceil(M * S_c / 64) (the >> 6
 * floors), and stage 2's are at most B = M * sum_c ceil(M * S_c / 64).
 * Each butterfly partial sum is bounded like the sum it is part of,
 * and stage 1's bound is below B, so B + 2^19 < 2^31 proves both
 * stages exact in int32.
 */
int64_t
stageTwoBound(const int32_t col_sum[kTxSize])
{
    const int64_t m = tables().max_basis;
    int64_t stage1 = 0;
    for (int c = 0; c < kTxSize; ++c)
        stage1 += (m * col_sum[c] + (1 << kStage1Shift) - 1) >> kStage1Shift;
    return m * stage1 + kStage2Round;
}

/** provablyZeroBlock's test on a scanned block. */
bool
boundQuantizesToZero(const ResidualScan &scan, int qp, double deadzone)
{
    const int64_t max_coeff = stageTwoBound(scan.col_sum) >> kStage2Shift;
    return max_coeff * tables().quant_scale[qp] + deadzoneOffset(deadzone) <
           (int64_t{1} << kQuantBits);
}

// The 1-D kernels below are the partial butterflies of HEVC-style
// encoders. Rounding kept two symmetries of the basis (checked when
// the table is built):
//   b[u][7-k] == (-1)^u b[u][k]          for all rows, and
//   b[u][3-k] == (-1)^(u/2) b[u][k]      for even rows, k < 4.
// So the sum over all eight k folds into sums over x[k] +- x[7-k]
// (even/odd rows), and the even rows fold once more. The integer
// results are identical to the plain matrix products, with 24
// multiplies per line instead of 64.

/** y[u] = sum_k b[u][k] * x[k], unshifted. T is a scalar, or a
 *  vector of eight lines; always inlined, so the vector instance is
 *  compiled for its AVX2 caller. */
template <typename T>
__attribute__((always_inline)) inline void
forwardLine(const Basis &b, const T x[kTxSize], T y[kTxSize])
{
    T e[kHalfTx];
    T o[kHalfTx];
    for (int k = 0; k < kHalfTx; ++k) {
        e[k] = x[k] + x[kTxSize - 1 - k];
        o[k] = x[k] - x[kTxSize - 1 - k];
    }
    const T ee0 = e[0] + e[3];
    const T ee1 = e[1] + e[2];
    const T eo0 = e[0] - e[3];
    const T eo1 = e[1] - e[2];
    y[0] = b[0][0] * ee0 + b[0][1] * ee1;
    y[4] = b[4][0] * ee0 + b[4][1] * ee1;
    y[2] = b[2][0] * eo0 + b[2][1] * eo1;
    y[6] = b[6][0] * eo0 + b[6][1] * eo1;
    for (int u = 1; u < kTxSize; u += 2) {
        y[u] = b[u][0] * o[0] + b[u][1] * o[1] + b[u][2] * o[2] +
               b[u][3] * o[3];
    }
}

/** x[k] = sum_u b[u][k] * y[u], unshifted. Always inlined: both
 *  stages call it (as an out-of-line call it cost the inverse about
 *  40%), and its vector instance must be compiled for AVX2. */
template <typename T>
__attribute__((always_inline)) inline void
inverseLine(const Basis &b, const T y[kTxSize], T x[kTxSize])
{
    const T ee0 = b[0][0] * y[0] + b[4][0] * y[4];
    const T ee1 = b[0][1] * y[0] + b[4][1] * y[4];
    const T eo0 = b[2][0] * y[2] + b[6][0] * y[6];
    const T eo1 = b[2][1] * y[2] + b[6][1] * y[6];
    const T e[kHalfTx] = {ee0 + eo0, ee1 + eo1, ee1 - eo1, ee0 - eo0};
    for (int k = 0; k < kHalfTx; ++k) {
        const T o = b[1][k] * y[1] + b[3][k] * y[3] + b[5][k] * y[5] +
                    b[7][k] * y[7];
        x[k] = e[k] + o;
        x[kTxSize - 1 - k] = e[k] - o;
    }
}

/**
 * Trellis-style coefficient optimization: drop trailing +-1 levels
 * when the rate saving beats the distortion increase. The software
 * profile's edge over the hardware pipeline (Section 4.1: "the
 * pipelined architecture cannot easily support all the same tools as
 * CPU, such as Trellis quantization").
 * @return Number of levels it cleared.
 */
int
optimizeCoeffs(CoeffBlock &levels, int qp, double lambda)
{
    const auto &scan = zigzagOrder();
    const double dq = tables().step[qp];
    const double delta_d = dq * dq;       // SSE increase of zeroing one.
    const double saved_bits = 5.0;        // sig + sign + mag + EOB shift.
    if (lambda * saved_bits <= delta_d)
        return 0;
    // Only the high-frequency tail is eligible: zeroing low bands
    // visibly hurts, which real trellis accounts for via exact
    // distortion and our approximation does not.
    int cleared = 0;
    for (int si = kTxCoeffs - 1; si >= 21; --si) {
        auto &level = levels[static_cast<size_t>(
            scan[static_cast<size_t>(si)])];
        if (level == 0)
            continue;
        if (std::abs(level) != 1)
            break;
        level = 0;
        ++cleared;
    }
    return cleared;
}

void
forwardDctScalar(const ResidualBlock &in,
                 std::array<int32_t, kTxCoeffs> &out)
{
    // Stage 1 (columns): tmp[u][c] = (sum_k b[u][k] * in[k][c]) >> 6.
    // int32 is exact for any int16 input: every partial sum is bounded
    // by sum_k |b[u][k]| * 32768 <= 23168 * 32768 < 2^31.
    const Basis &b = tables().basis;
    int32_t tmp[kTxSize][kTxSize];
    for (int c = 0; c < kTxSize; ++c) {
        int32_t x[kTxSize];
        int32_t y[kTxSize];
        for (int k = 0; k < kTxSize; ++k)
            x[k] = in[static_cast<size_t>(k * kTxSize + c)];
        forwardLine(b, x, y);
        for (int u = 0; u < kTxSize; ++u)
            tmp[u][c] = y[u] >> kStage1Shift;
    }
    // Stage 2 (rows): int64, since for int16 input stage-1 values
    // reach 2^23.5 and their products with the basis overflow int32.
    for (int u = 0; u < kTxSize; ++u) {
        int64_t x[kTxSize];
        int64_t y[kTxSize];
        for (int k = 0; k < kTxSize; ++k)
            x[k] = tmp[u][k];
        forwardLine(b, x, y);
        for (int v = 0; v < kTxSize; ++v)
            out[static_cast<size_t>(u * kTxSize + v)] =
                static_cast<int32_t>((y[v] + kStage2Round) >> kStage2Shift);
    }
}

void
inverseDctScalar(const std::array<int32_t, kTxCoeffs> &in,
                 ResidualBlock &out)
{
    // Both stages are int64: decoded levels come from the bitstream
    // and dequantize to up to 32767 * 211, so even stage 1's sums
    // exceed int32 before the >> 6.
    const Basis &b = tables().basis;
    int32_t tmp[kTxSize][kTxSize];
    for (int c = 0; c < kTxSize; ++c) {
        int64_t y[kTxSize];
        int64_t x[kTxSize];
        for (int u = 0; u < kTxSize; ++u)
            y[u] = in[static_cast<size_t>(u * kTxSize + c)];
        inverseLine(b, y, x);
        for (int k = 0; k < kTxSize; ++k)
            tmp[k][c] = static_cast<int32_t>(x[k] >> kStage1Shift);
    }
    // Stage 2 (rows), clamped to the residual's int16 range.
    for (int k = 0; k < kTxSize; ++k) {
        int64_t y[kTxSize];
        int64_t x[kTxSize];
        for (int v = 0; v < kTxSize; ++v)
            y[v] = tmp[k][v];
        inverseLine(b, y, x);
        for (int l = 0; l < kTxSize; ++l) {
            const auto value =
                static_cast<int32_t>((x[l] + kStage2Round) >> kStage2Shift);
            out[static_cast<size_t>(k * kTxSize + l)] =
                static_cast<int16_t>(std::clamp(value, -32768, 32767));
        }
    }
}

void
quantizeScalar(const std::array<int32_t, kTxCoeffs> &coeffs, int qp,
               int64_t offset, CoeffBlock &out)
{
    const int64_t scale = tables().quant_scale[qp];
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        const int32_t c = coeffs[i];
        const int64_t mag = std::abs(static_cast<int64_t>(c));
        const int64_t level = (mag * scale + offset) >> kQuantBits;
        const auto clamped =
            static_cast<int16_t>(std::min<int64_t>(level, 32767));
        out[i] = c < 0 ? static_cast<int16_t>(-clamped) : clamped;
    }
}

// AVX2 kernels. A v8si holds one value of eight lines, so the
// butterflies above run eight lines at once; each 8x8 stage runs its
// lines down the register's lanes, and a transpose turns the block
// between stages.

using v8si = int32_t __attribute__((vector_size(32)));

WSVA_TARGET_AVX2 inline v8si
loadRow16(const int16_t *p)
{
    return reinterpret_cast<v8si>(_mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p))));
}

WSVA_TARGET_AVX2 inline bool
allLanesAtMost(__m256i v, int32_t limit)
{
    // Unsigned, so that |INT32_MIN| (which stays negative) fails.
    const __m256i lim = _mm256_set1_epi32(limit);
    return _mm256_movemask_epi8(_mm256_cmpeq_epi32(
               _mm256_max_epu32(v, lim), lim)) == -1;
}

/** Transposes the 8x8 block held as eight rows. Always inlined, so
 *  the rows stay in registers. */
WSVA_TARGET_AVX2 __attribute__((always_inline)) inline void
transpose8x8(v8si rows[kTxSize])
{
    __m256i r[kTxSize];
    for (int i = 0; i < kTxSize; ++i)
        r[i] = reinterpret_cast<__m256i>(rows[i]);
    // Pairs, then quads, within each 128-bit half; then the halves.
    __m256i t[kTxSize];
    for (int i = 0; i < kTxSize; i += 2) {
        t[i] = _mm256_unpacklo_epi32(r[i], r[i + 1]);
        t[i + 1] = _mm256_unpackhi_epi32(r[i], r[i + 1]);
    }
    __m256i q[kTxSize];
    for (int i = 0; i < kTxSize; i += 4) {
        q[i] = _mm256_unpacklo_epi64(t[i], t[i + 2]);
        q[i + 1] = _mm256_unpackhi_epi64(t[i], t[i + 2]);
        q[i + 2] = _mm256_unpacklo_epi64(t[i + 1], t[i + 3]);
        q[i + 3] = _mm256_unpackhi_epi64(t[i + 1], t[i + 3]);
    }
    for (int i = 0; i < kHalfTx; ++i) {
        rows[i] = reinterpret_cast<v8si>(
            _mm256_permute2x128_si256(q[i], q[i + 4], 0x20));
        rows[i + 4] = reinterpret_cast<v8si>(
            _mm256_permute2x128_si256(q[i], q[i + 4], 0x31));
    }
}

/** scanResidual on AVX2: one row of eight columns per register. */
WSVA_TARGET_AVX2 ResidualScan
scanResidualAvx2(const ResidualBlock &residual)
{
    __m256i sum = _mm256_setzero_si256();
    __m256i max = _mm256_setzero_si256();
    for (int k = 0; k < kTxSize; ++k) {
        const __m256i a = _mm256_abs_epi32(reinterpret_cast<__m256i>(
            loadRow16(residual.data() + k * kTxSize)));
        sum = _mm256_add_epi32(sum, a);
        max = _mm256_max_epi32(max, a);
    }
    ResidualScan scan;
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(scan.col_sum), sum);
    __m128i m = _mm_max_epi32(_mm256_castsi256_si128(max),
                              _mm256_extracti128_si256(max, 1));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, 0x4e));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, 0xb1));
    scan.max_abs = _mm_cvtsi128_si32(m);
    return scan;
}

/** forwardDctScalar in int32 lanes; exact for |x| <= 255. */
WSVA_TARGET_AVX2 void
forwardDctAvx2(const ResidualBlock &in, std::array<int32_t, kTxCoeffs> &out)
{
    const Basis &b = tables().basis;
    v8si x[kTxSize];
    v8si y[kTxSize];
    // Stage 1: lanes are columns, so the lines run down the rows.
    for (int k = 0; k < kTxSize; ++k)
        x[k] = loadRow16(in.data() + k * kTxSize);
    forwardLine(b, x, y);
    for (int u = 0; u < kTxSize; ++u)
        y[u] = y[u] >> kStage1Shift;
    // Stage 2: lanes are stage 1's rows.
    transpose8x8(y);
    forwardLine(b, y, x);
    for (int v = 0; v < kTxSize; ++v)
        x[v] = (x[v] + static_cast<int32_t>(kStage2Round)) >> kStage2Shift;
    transpose8x8(x);
    for (int u = 0; u < kTxSize; ++u)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out.data() + u * kTxSize),
            reinterpret_cast<__m256i>(x[u]));
}

/**
 * The inverse of the spectrum held as eight rows, in int32 lanes,
 * when stageTwoBound over its column sums proves that exact.
 * @return False, with @p out untouched, when it does not.
 */
WSVA_TARGET_AVX2 __attribute__((always_inline)) inline bool
inverseRowsAvx2(v8si rows[kTxSize], ResidualBlock &out)
{
    __m256i sum = _mm256_setzero_si256();
    __m256i max = _mm256_setzero_si256();
    for (int u = 0; u < kTxSize; ++u) {
        const __m256i a =
            _mm256_abs_epi32(reinterpret_cast<__m256i>(rows[u]));
        sum = _mm256_add_epi32(sum, a);
        max = _mm256_max_epu32(max, a);
    }
    // A coefficient above 2^24 fails the bound anyway; below it the
    // column sums cannot wrap.
    if (!allLanesAtMost(max, 1 << 24))
        return false;
    int32_t col_sum[kTxSize];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(col_sum), sum);
    if (stageTwoBound(col_sum) >= (int64_t{1} << 31))
        return false;

    const Basis &b = tables().basis;
    v8si x[kTxSize];
    // Stage 1: lanes are columns, lines run down the rows.
    inverseLine(b, rows, x);
    for (int k = 0; k < kTxSize; ++k)
        x[k] = x[k] >> kStage1Shift;
    transpose8x8(x);
    v8si y[kTxSize];
    inverseLine(b, x, y);
    for (int l = 0; l < kTxSize; ++l)
        y[l] = (y[l] + static_cast<int32_t>(kStage2Round)) >> kStage2Shift;
    transpose8x8(y);
    // packs saturates to int16: the scalar code's clamp.
    for (int k = 0; k < kTxSize; k += 2) {
        const __m256i packed = _mm256_permute4x64_epi64(
            _mm256_packs_epi32(reinterpret_cast<__m256i>(y[k]),
                               reinterpret_cast<__m256i>(y[k + 1])),
            0xd8);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out.data() + k * kTxSize), packed);
    }
    return true;
}

WSVA_TARGET_AVX2 bool
inverseDctAvx2(const std::array<int32_t, kTxCoeffs> &in, ResidualBlock &out)
{
    v8si rows[kTxSize];
    for (int u = 0; u < kTxSize; ++u)
        rows[u] = reinterpret_cast<v8si>(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in.data() + u * kTxSize)));
    return inverseRowsAvx2(rows, out);
}

/** reconstructResidual on AVX2, dequantizing in registers.
 *  @return False when the int32 inverse is not proved exact. */
WSVA_TARGET_AVX2 bool
reconstructAvx2(const CoeffBlock &levels, int qp, ResidualBlock &out)
{
    const auto *p = reinterpret_cast<const __m256i *>(levels.data());
    const __m256i any = _mm256_or_si256(
        _mm256_or_si256(_mm256_loadu_si256(p), _mm256_loadu_si256(p + 1)),
        _mm256_or_si256(_mm256_loadu_si256(p + 2),
                        _mm256_loadu_si256(p + 3)));
    if (_mm256_testz_si256(any, any)) {
        out.fill(0);
        return true;
    }
    const int32_t dq = tables().dequant[qp];
    v8si rows[kTxSize];
    for (int u = 0; u < kTxSize; ++u)
        rows[u] = loadRow16(levels.data() + u * kTxSize) * dq;
    return inverseRowsAvx2(rows, out);
}

WSVA_TARGET_AVX2 bool
coeffsFitInt32Quant(const std::array<int32_t, kTxCoeffs> &coeffs)
{
    __m256i max = _mm256_setzero_si256();
    for (size_t i = 0; i < kTxCoeffs; i += 8)
        max = _mm256_max_epu32(
            max, _mm256_abs_epi32(_mm256_loadu_si256(
                     reinterpret_cast<const __m256i *>(coeffs.data() + i))));
    return allLanesAtMost(max, kInt32QuantMaxCoeff);
}

/** quantizeScalar in int32 lanes, for |coeff| <= kInt32QuantMaxCoeff
 *  and an offset in [0, 2^20): |coeff| * scale + offset < 2^31.
 *  @return Number of nonzero levels. */
WSVA_TARGET_AVX2 int
quantizeAvx2(const std::array<int32_t, kTxCoeffs> &coeffs, int qp,
             int32_t offset, CoeffBlock &out)
{
    const __m256i scale =
        _mm256_set1_epi32(static_cast<int32_t>(tables().quant_scale[qp]));
    const __m256i off = _mm256_set1_epi32(offset);
    int zeros = 0;
    for (size_t i = 0; i < kTxCoeffs; i += 16) {
        __m256i l[2];
        for (size_t h = 0; h < 2; ++h) {
            const __m256i c = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(coeffs.data() + i + 8 * h));
            const __m256i mag = _mm256_srli_epi32(
                _mm256_add_epi32(
                    _mm256_mullo_epi32(_mm256_abs_epi32(c), scale), off),
                kQuantBits);
            // Negates where c < 0 and zeroes where c == 0, whose level
            // is 0 anyway (offset < 2^20).
            l[h] = _mm256_sign_epi32(mag, c);
        }
        const __m256i packed = _mm256_permute4x64_epi64(
            _mm256_packs_epi32(l[0], l[1]), 0xd8);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out.data() + i),
                            packed);
        zeros += __builtin_popcount(static_cast<unsigned>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi16(
                packed, _mm256_setzero_si256()))));
    }
    // Each int16 lane sets two mask bits.
    return kTxCoeffs - zeros / 2;
}

/**
 * quantize, dispatched.
 * @param small_coeffs True when every |coeff| is known to be at most
 *        kInt32QuantMaxCoeff, so the check can be skipped.
 * @return Number of nonzero levels.
 */
int
quantizeCounted(const std::array<int32_t, kTxCoeffs> &coeffs, int qp,
                double deadzone, bool small_coeffs, CoeffBlock &out)
{
    const int64_t offset = deadzoneOffset(deadzone);
    if (avx2Kernels() && int32QuantOffset(offset) &&
        (small_coeffs || coeffsFitInt32Quant(coeffs)))
        return quantizeAvx2(coeffs, qp, static_cast<int32_t>(offset), out);
    quantizeScalar(coeffs, qp, offset, out);
    return static_cast<int>(std::count_if(
        out.begin(), out.end(), [](int16_t l) { return l != 0; }));
}

/** forwardDct, dispatched on a scan of @p in. */
void
forwardDctScanned(const ResidualBlock &in, const ResidualScan &scan,
                  std::array<int32_t, kTxCoeffs> &out)
{
    if (avx2Kernels() && scan.max_abs <= kInt32ForwardMaxInput)
        forwardDctAvx2(in, out);
    else
        forwardDctScalar(in, out);
}

ResidualScan
scanDispatched(const ResidualBlock &residual)
{
    return avx2Kernels() ? scanResidualAvx2(residual)
                         : scanResidual(residual);
}

} // namespace

double
qstep(int qp)
{
    WSVA_ASSERT(qp >= 0 && qp <= kMaxQp, "qp %d out of range", qp);
    return 0.9 * std::exp2(static_cast<double>(qp) / 8.0);
}

void
forwardDct(const ResidualBlock &in, std::array<int32_t, kTxCoeffs> &out)
{
    forwardDctScanned(in, scanDispatched(in), out);
}

void
inverseDct(const std::array<int32_t, kTxCoeffs> &in, ResidualBlock &out)
{
    if (!(avx2Kernels() && inverseDctAvx2(in, out)))
        inverseDctScalar(in, out);
}

void
quantize(const std::array<int32_t, kTxCoeffs> &coeffs, int qp,
         double deadzone, CoeffBlock &out)
{
    quantizeCounted(coeffs, qp, deadzone, false, out);
}

void
dequantize(const CoeffBlock &levels, int qp,
           std::array<int32_t, kTxCoeffs> &out)
{
    const auto &t = tables();
    const int32_t dq = t.dequant[qp];
    for (size_t i = 0; i < kTxCoeffs; ++i)
        out[i] = static_cast<int32_t>(levels[i]) * dq;
}

const std::array<int, kTxCoeffs> &
zigzagOrder()
{
    static const std::array<int, kTxCoeffs> order = [] {
        std::array<int, kTxCoeffs> o{};
        int idx = 0;
        for (int s = 0; s < 2 * kTxSize - 1; ++s) {
            if (s % 2 == 0) {
                // Walk up-right on even diagonals.
                for (int y = std::min(s, kTxSize - 1);
                     y >= std::max(0, s - kTxSize + 1); --y) {
                    o[static_cast<size_t>(idx++)] = y * kTxSize + (s - y);
                }
            } else {
                for (int x = std::min(s, kTxSize - 1);
                     x >= std::max(0, s - kTxSize + 1); --x) {
                    o[static_cast<size_t>(idx++)] = (s - x) * kTxSize + x;
                }
            }
        }
        return o;
    }();
    return order;
}

const std::array<int16_t, kTxCoeffs> &
zigzagInverse()
{
    static const std::array<int16_t, kTxCoeffs> inverse = [] {
        std::array<int16_t, kTxCoeffs> o{};
        const auto &order = zigzagOrder();
        for (int si = 0; si < kTxCoeffs; ++si) {
            o[static_cast<size_t>(order[static_cast<size_t>(si)])] =
                static_cast<int16_t>(si);
        }
        return o;
    }();
    return inverse;
}

bool
provablyZeroBlock(const ResidualBlock &residual, int qp, double deadzone)
{
    // Stage 2's rounded shift gives |coeff| <= (B + 2^19) >> 20 (for
    // a negative sum its magnitude is never larger), and the quantizer
    // is monotone in |coeff|: if that bound quantizes to zero, every
    // coefficient does.
    return boundQuantizesToZero(scanDispatched(residual), qp, deadzone);
}

int
transformQuantize(const ResidualBlock &residual, int qp, double deadzone,
                  bool coeff_opt, double lambda, CoeffBlock &levels,
                  ResidualBlock &recon_residual)
{
    static const int kPhase = prof::phaseId("codec/dct_quant");
    // Sampled: one call per 8x8 block (hundreds of thousands per
    // clip), far too hot to clock every invocation.
    prof::ProfScopeSampled prof_scope(kPhase, 16);
    // One pass gives both the zero bound's column sums and the int32
    // forward's guard.
    const ResidualScan scan = scanDispatched(residual);
    // Exact: the trellis only clears levels, and an all-zero level
    // block reconstructs to zeros (see reconstructResidual).
    if (boundQuantizesToZero(scan, qp, deadzone)) {
        levels.fill(0);
        recon_residual.fill(0);
        return 0;
    }
    std::array<int32_t, kTxCoeffs> freq;
    forwardDctScanned(residual, scan, freq);
    // The forward bound: |x| <= 255 gives |coeff| <= 2,040.
    const bool small_coeffs = scan.max_abs <= kInt32ForwardMaxInput;
    int nonzero =
        quantizeCounted(freq, qp, deadzone, small_coeffs, levels);
    if (coeff_opt)
        nonzero -= optimizeCoeffs(levels, qp, lambda);
    reconstructResidual(levels, qp, recon_residual);
    return nonzero;
}

void
reconstructResidual(const CoeffBlock &levels, int qp,
                    ResidualBlock &recon_residual)
{
    if (avx2Kernels() && reconstructAvx2(levels, qp, recon_residual))
        return;
    // Exact: zero levels dequantize to zero, and the inverse of an
    // all-zero block is (0 + 2^19) >> 20 == 0 everywhere.
    if (std::all_of(levels.begin(), levels.end(),
                    [](int16_t l) { return l == 0; })) {
        recon_residual.fill(0);
        return;
    }
    std::array<int32_t, kTxCoeffs> freq;
    dequantize(levels, qp, freq);
    inverseDctScalar(freq, recon_residual);
}

} // namespace wsva::video::codec
