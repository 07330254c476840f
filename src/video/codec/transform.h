/**
 * @file
 * 8x8 integer DCT, quantization, and zigzag scan.
 *
 * The transform is an integer DCT-II (13-bit fixed-point basis),
 * computed as even/odd partial butterflies, so results are bit-exact
 * across platforms; the encoder's reconstruction path and the decoder
 * use the identical inverse.
 * Quantization uses a dead-zone uniform quantizer with a 64-step
 * exponential step-size table (qp in [0, 63]).
 */

#ifndef WSVA_VIDEO_CODEC_TRANSFORM_H
#define WSVA_VIDEO_CODEC_TRANSFORM_H

#include <array>
#include <cstdint>

namespace wsva::video::codec {

constexpr int kTxSize = 8;                      //!< Transform is 8x8.
constexpr int kTxCoeffs = kTxSize * kTxSize;    //!< 64 coefficients.
constexpr int kMaxQp = 63;                      //!< Quantizer range.

/** Residual / coefficient block storage. */
using ResidualBlock = std::array<int16_t, kTxCoeffs>;
using CoeffBlock = std::array<int16_t, kTxCoeffs>;

/**
 * Forward 8x8 DCT of a residual block (row-major). Exact for any
 * int16 input. Blocks with every |x| <= 255, such as the encoder's
 * pixel-minus-prediction residuals, run in int32 lanes on a CPU with
 * AVX2; the rest run stage 2 in int64.
 */
void forwardDct(const ResidualBlock &in, std::array<int32_t, kTxCoeffs> &out);

/**
 * Inverse 8x8 DCT back to the (approximate) residual, clamped to
 * int16. Exact for any int32 input. On a CPU with AVX2 it runs in
 * int32 lanes when a bound from the input's column sums proves that
 * exact (DESIGN.md §4); otherwise, as for the extreme levels a
 * bitstream can carry, both stages run in int64.
 */
void inverseDct(const std::array<int32_t, kTxCoeffs> &in, ResidualBlock &out);

/** Quantizer step size for @p qp (exponential, ~0.9 to ~190). */
double qstep(int qp);

/**
 * Dead-zone quantization of DCT coefficients:
 * level = sign(c) * min((|c| * round(2^20 / step) + offset) >> 20,
 * 32767), with offset = floor(deadzone * 2^20).
 * @param deadzone Rounding offset as a fraction of the step, in
 *        [0, 2^31); a value outside that domain panics. 0.5 rounds to
 *        nearest and smaller values widen the zero bin (the encoder's
 *        profiles use 0.33-0.45); from 1 up even a zero coefficient
 *        gets a nonzero level. With the offset below 2^20 and every
 *        |coeff| <= 2,040 (the forward DCT's largest output for
 *        |residual| <= 255), the levels run in int32 lanes on a CPU
 *        with AVX2; anything else takes the int64 path. Both give the
 *        same levels.
 */
void quantize(const std::array<int32_t, kTxCoeffs> &coeffs, int qp,
              double deadzone, CoeffBlock &out);

/** Dequantize levels back to coefficient magnitudes. */
void dequantize(const CoeffBlock &levels, int qp,
                std::array<int32_t, kTxCoeffs> &out);

/** Zigzag scan order: scan index -> raster coefficient index. */
const std::array<int, kTxCoeffs> &zigzagOrder();

/**
 * The inverse of zigzagOrder(): raster coefficient index -> scan
 * index, in int16 so that SIMD code loads eight entries at a time.
 */
const std::array<int16_t, kTxCoeffs> &zigzagInverse();

/**
 * True when a bound on the forward DCT's output, taken from the
 * block's per-column absolute sums, proves that quantize() turns
 * every coefficient of @p residual into a zero level. Sufficient,
 * not necessary: a block it cannot prove may still quantize to zero.
 */
bool provablyZeroBlock(const ResidualBlock &residual, int qp,
                       double deadzone);

/**
 * Full residual coding round trip used by both mode decision and the
 * final encode: transform, quantize, optionally drop trailing +-1
 * levels (the software profile's trellis step), and reconstruct the
 * residual once from the final levels. Blocks provablyZeroBlock()
 * covers skip all of it and come back as zeros, exactly.
 * @param coeff_opt Run the trellis step (Toolset::coeff_opt).
 * @param lambda RD lambda the trellis step weighs rate against.
 * @return Number of nonzero levels after the trellis step.
 */
int transformQuantize(const ResidualBlock &residual, int qp, double deadzone,
                      bool coeff_opt, double lambda, CoeffBlock &levels,
                      ResidualBlock &recon_residual);

/** Decoder-side reconstruction of a residual from levels; an all-zero
 *  block reconstructs to zeros without a transform. */
void reconstructResidual(const CoeffBlock &levels, int qp,
                         ResidualBlock &recon_residual);

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_TRANSFORM_H
