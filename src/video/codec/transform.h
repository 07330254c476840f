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

/** Forward 8x8 DCT of a residual block (row-major). */
void forwardDct(const ResidualBlock &in, std::array<int32_t, kTxCoeffs> &out);

/** Inverse 8x8 DCT back to the (approximate) residual. */
void inverseDct(const std::array<int32_t, kTxCoeffs> &in, ResidualBlock &out);

/** Quantizer step size for @p qp (exponential, ~0.9 to ~190). */
double qstep(int qp);

/**
 * Dead-zone quantization of DCT coefficients.
 * @param deadzone Rounding offset in [0, 0.5); smaller = more zeros.
 */
void quantize(const std::array<int32_t, kTxCoeffs> &coeffs, int qp,
              double deadzone, CoeffBlock &out);

/** Dequantize levels back to coefficient magnitudes. */
void dequantize(const CoeffBlock &levels, int qp,
                std::array<int32_t, kTxCoeffs> &out);

/** Zigzag scan order: scan index -> raster coefficient index. */
const std::array<int, kTxCoeffs> &zigzagOrder();

/**
 * Full residual coding round trip used by both mode decision and the
 * final encode: transform, quantize, optionally drop trailing +-1
 * levels (the software profile's trellis step), and reconstruct the
 * residual once from the final levels.
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
