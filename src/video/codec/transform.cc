#include "video/codec/transform.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/profiler.h"

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

/** Integer DCT-II basis matrix, scaled by 2^kBasisBits. */
using Basis = int32_t[kTxSize][kTxSize];

struct DctTables
{
    Basis basis;
    int32_t max_basis = 0; //!< Largest |basis| entry.
    int32_t dequant[kMaxQp + 1];
    int64_t quant_scale[kMaxQp + 1]; //!< round(2^20 / dequant).
    double step[kMaxQp + 1];         //!< qstep(qp).

    DctTables()
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
    return static_cast<int64_t>(deadzone * (1 << kQuantBits));
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

/** y[u] = sum_k b[u][k] * x[k], unshifted. */
template <typename T>
void
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

/** x[k] = sum_u b[u][k] * y[u], unshifted. Marked inline: both
 *  stages call it, and as an out-of-line call it cost the inverse
 *  about 40%. */
inline void
inverseLine(const Basis &b, const int64_t y[kTxSize], int64_t x[kTxSize])
{
    const int64_t ee0 = b[0][0] * y[0] + b[4][0] * y[4];
    const int64_t ee1 = b[0][1] * y[0] + b[4][1] * y[4];
    const int64_t eo0 = b[2][0] * y[2] + b[6][0] * y[6];
    const int64_t eo1 = b[2][1] * y[2] + b[6][1] * y[6];
    const int64_t e[kHalfTx] = {ee0 + eo0, ee1 + eo1, ee1 - eo1, ee0 - eo0};
    for (int k = 0; k < kHalfTx; ++k) {
        const int64_t o = b[1][k] * y[1] + b[3][k] * y[3] +
                          b[5][k] * y[5] + b[7][k] * y[7];
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
 */
void
optimizeCoeffs(CoeffBlock &levels, int qp, double lambda)
{
    const auto &scan = zigzagOrder();
    const double dq = tables().step[qp];
    const double delta_d = dq * dq;       // SSE increase of zeroing one.
    const double saved_bits = 5.0;        // sig + sign + mag + EOB shift.
    if (lambda * saved_bits <= delta_d)
        return;
    // Only the high-frequency tail is eligible: zeroing low bands
    // visibly hurts, which real trellis accounts for via exact
    // distortion and our approximation does not.
    for (int si = kTxCoeffs - 1; si >= 21; --si) {
        auto &level = levels[static_cast<size_t>(
            scan[static_cast<size_t>(si)])];
        if (level == 0)
            continue;
        if (std::abs(level) == 1)
            level = 0;
        else
            break;
    }
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
    // Stage 2 (rows): int64, since stage-1 values reach 2^23.5 and
    // their products with the basis overflow int32.
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
inverseDct(const std::array<int32_t, kTxCoeffs> &in, ResidualBlock &out)
{
    // Both stages stay int64: decoded levels come from the bitstream
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
quantize(const std::array<int32_t, kTxCoeffs> &coeffs, int qp,
         double deadzone, CoeffBlock &out)
{
    const auto &t = tables();
    const int64_t scale = t.quant_scale[qp];
    const int64_t offset = deadzoneOffset(deadzone);
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        const int32_t c = coeffs[i];
        const int64_t mag = std::abs(static_cast<int64_t>(c));
        const int64_t level = (mag * scale + offset) >> kQuantBits;
        const auto clamped =
            static_cast<int16_t>(std::min<int64_t>(level, 32767));
        out[i] = c < 0 ? static_cast<int16_t>(-clamped) : clamped;
    }
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

bool
provablyZeroBlock(const ResidualBlock &residual, int qp, double deadzone)
{
    // With S_c column c's absolute sum and M the largest |basis|
    // entry, stage 1 gives |tmp[u][c]| <= ceil(M * S_c / 64) (its >> 6
    // floors), stage 2 gives |sum| <= B = M * sum_c ceil(M * S_c / 64),
    // and its rounded shift gives |coeff| <= (B + 2^19) >> 20. The
    // quantizer is monotone in |coeff|, so if that bound quantizes to
    // zero, every coefficient does.
    const auto &t = tables();
    int64_t col_sum[kTxSize] = {};
    for (int k = 0; k < kTxSize; ++k)
        for (int c = 0; c < kTxSize; ++c)
            col_sum[c] += std::abs(
                static_cast<int32_t>(residual[static_cast<size_t>(
                    k * kTxSize + c)]));
    const int64_t m = t.max_basis;
    int64_t stage1 = 0;
    for (int c = 0; c < kTxSize; ++c)
        stage1 += (m * col_sum[c] + (1 << kStage1Shift) - 1) >> kStage1Shift;
    const int64_t max_coeff = (m * stage1 + kStage2Round) >> kStage2Shift;
    return max_coeff * t.quant_scale[qp] + deadzoneOffset(deadzone) <
           (int64_t{1} << kQuantBits);
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
    // Exact: the trellis only clears levels, and an all-zero level
    // block reconstructs to zeros (see reconstructResidual).
    if (provablyZeroBlock(residual, qp, deadzone)) {
        levels.fill(0);
        recon_residual.fill(0);
        return 0;
    }
    std::array<int32_t, kTxCoeffs> freq;
    forwardDct(residual, freq);
    quantize(freq, qp, deadzone, levels);
    if (coeff_opt)
        optimizeCoeffs(levels, qp, lambda);
    reconstructResidual(levels, qp, recon_residual);
    return static_cast<int>(std::count_if(
        levels.begin(), levels.end(), [](int16_t l) { return l != 0; }));
}

void
reconstructResidual(const CoeffBlock &levels, int qp,
                    ResidualBlock &recon_residual)
{
    // Exact: zero levels dequantize to zero, and the inverse of an
    // all-zero block is (0 + 2^19) >> 20 == 0 everywhere.
    if (std::all_of(levels.begin(), levels.end(),
                    [](int16_t l) { return l == 0; })) {
        recon_residual.fill(0);
        return;
    }
    std::array<int32_t, kTxCoeffs> freq;
    dequantize(levels, qp, freq);
    inverseDct(freq, recon_residual);
}

} // namespace wsva::video::codec
