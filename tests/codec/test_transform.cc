#include "video/codec/transform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"

namespace wsva::video::codec {
namespace {

using Spectrum = std::array<int32_t, kTxCoeffs>;

ResidualBlock
randomResidual(wsva::Rng &rng, int amplitude)
{
    ResidualBlock r;
    for (auto &v : r)
        v = static_cast<int16_t>(rng.uniformRange(-amplitude, amplitude));
    return r;
}

/**
 * Reference transforms: the plain 8x8 matrix products over the same
 * rounded 13-bit basis, with the same stage shifts and casts. The
 * codec's butterflies must match them bit for bit on every input.
 */
struct ReferenceDct
{
    static constexpr int kBasisBits = 13;
    static constexpr int kShift = 2 * kBasisBits - 6;
    static constexpr int64_t kRound = 1LL << (kShift - 1);
    int32_t basis[kTxSize][kTxSize];

    ReferenceDct()
    {
        for (int u = 0; u < kTxSize; ++u) {
            const double a = u == 0 ? std::sqrt(1.0 / kTxSize)
                                    : std::sqrt(2.0 / kTxSize);
            for (int k = 0; k < kTxSize; ++k) {
                const double v =
                    a * std::cos((2 * k + 1) * u * M_PI / (2.0 * kTxSize));
                basis[u][k] = static_cast<int32_t>(
                    std::lround(v * (1 << kBasisBits)));
            }
        }
    }

    void
    forward(const ResidualBlock &in, Spectrum &out) const
    {
        int32_t tmp[kTxSize][kTxSize];
        for (int u = 0; u < kTxSize; ++u) {
            for (int col = 0; col < kTxSize; ++col) {
                int64_t acc = 0;
                for (int k = 0; k < kTxSize; ++k)
                    acc += static_cast<int64_t>(basis[u][k]) *
                           in[static_cast<size_t>(k * kTxSize + col)];
                tmp[u][col] = static_cast<int32_t>(acc >> 6);
            }
        }
        for (int u = 0; u < kTxSize; ++u) {
            for (int v = 0; v < kTxSize; ++v) {
                int64_t acc = 0;
                for (int k = 0; k < kTxSize; ++k)
                    acc += static_cast<int64_t>(basis[v][k]) * tmp[u][k];
                out[static_cast<size_t>(u * kTxSize + v)] =
                    static_cast<int32_t>((acc + kRound) >> kShift);
            }
        }
    }

    void
    inverse(const Spectrum &in, ResidualBlock &out) const
    {
        int32_t tmp[kTxSize][kTxSize];
        for (int k = 0; k < kTxSize; ++k) {
            for (int v = 0; v < kTxSize; ++v) {
                int64_t acc = 0;
                for (int u = 0; u < kTxSize; ++u)
                    acc += static_cast<int64_t>(basis[u][k]) *
                           in[static_cast<size_t>(u * kTxSize + v)];
                tmp[k][v] = static_cast<int32_t>(acc >> 6);
            }
        }
        for (int k = 0; k < kTxSize; ++k) {
            for (int l = 0; l < kTxSize; ++l) {
                int64_t acc = 0;
                for (int v = 0; v < kTxSize; ++v)
                    acc += static_cast<int64_t>(basis[v][l]) * tmp[k][v];
                const auto value =
                    static_cast<int32_t>((acc + kRound) >> kShift);
                out[static_cast<size_t>(k * kTxSize + l)] =
                    static_cast<int16_t>(std::clamp(value, -32768, 32767));
            }
        }
    }
};

const ReferenceDct &
reference()
{
    static const ReferenceDct r;
    return r;
}

void
expectForwardMatchesReference(const ResidualBlock &in)
{
    Spectrum got;
    Spectrum want;
    forwardDct(in, got);
    reference().forward(in, want);
    ASSERT_EQ(got, want);
}

void
expectInverseMatchesReference(const Spectrum &in)
{
    ResidualBlock got;
    ResidualBlock want;
    inverseDct(in, got);
    reference().inverse(in, want);
    ASSERT_EQ(got, want);
}

int
sign(int32_t v)
{
    return v < 0 ? -1 : 1;
}

TEST(DctReference, ForwardMatchesMatrixProductOnRandomBlocks)
{
    wsva::Rng rng(21);
    for (int amplitude : {20, 255, 32767}) {
        for (int trial = 0; trial < 2000; ++trial) {
            SCOPED_TRACE(testing::Message() << "amplitude " << amplitude
                                            << " trial " << trial);
            expectForwardMatchesReference(randomResidual(rng, amplitude));
        }
    }
}

TEST(DctReference, ForwardMatchesAtStageOneInt32Bound)
{
    // Blocks whose signs follow basis rows u (down the columns) and v
    // (along the rows) drive stage 1's column sums, then stage 2's row
    // sums, to their largest magnitude: 23168 * 32767 for u in {0, 4}.
    const auto &b = reference().basis;
    for (int u = 0; u < kTxSize; ++u) {
        for (int v = 0; v < kTxSize; ++v) {
            for (int polarity : {1, -1}) {
                ResidualBlock in;
                for (int k = 0; k < kTxSize; ++k) {
                    for (int c = 0; c < kTxSize; ++c) {
                        in[static_cast<size_t>(k * kTxSize + c)] =
                            static_cast<int16_t>(polarity * sign(b[u][k]) *
                                                 sign(b[v][c]) * 32767);
                    }
                }
                SCOPED_TRACE(testing::Message() << "u " << u << " v " << v
                                                << " polarity " << polarity);
                expectForwardMatchesReference(in);
            }
        }
    }
    // The one input reaching 23168 * 32768 exactly.
    ResidualBlock floor_block;
    floor_block.fill(-32768);
    expectForwardMatchesReference(floor_block);
    Spectrum freq;
    forwardDct(floor_block, freq);
    EXPECT_LT(freq[0], 0);
}

TEST(DctReference, InverseMatchesMatrixProductOnDecodableLevels)
{
    // Levels come from the bitstream: anything in int16, dequantized
    // at up to qp 63 (step 211).
    wsva::Rng rng(22);
    for (int qp : {0, 32, kMaxQp}) {
        for (int amplitude : {20, 255, 32767}) {
            for (int trial = 0; trial < 500; ++trial) {
                CoeffBlock levels;
                for (auto &l : levels)
                    l = static_cast<int16_t>(
                        rng.uniformRange(-amplitude, amplitude));
                Spectrum freq;
                dequantize(levels, qp, freq);
                SCOPED_TRACE(testing::Message()
                             << "qp " << qp << " amplitude " << amplitude
                             << " trial " << trial);
                expectInverseMatchesReference(freq);
            }
        }
    }
}

TEST(DctReference, InverseMatchesAtExtremeLevels)
{
    // Sign patterns aligned with basis columns k and l push both
    // inverse stages to their largest sums (stage 1 past int32 before
    // the >> 6), with every level at +-32767 * dequant(63).
    const auto &b = reference().basis;
    for (int k = 0; k < kTxSize; ++k) {
        for (int l = 0; l < kTxSize; ++l) {
            for (int polarity : {1, -1}) {
                CoeffBlock levels;
                for (int u = 0; u < kTxSize; ++u) {
                    for (int v = 0; v < kTxSize; ++v) {
                        levels[static_cast<size_t>(u * kTxSize + v)] =
                            static_cast<int16_t>(polarity * sign(b[u][k]) *
                                                 sign(b[v][l]) * 32767);
                    }
                }
                Spectrum freq;
                dequantize(levels, kMaxQp, freq);
                SCOPED_TRACE(testing::Message() << "k " << k << " l " << l
                                                << " polarity " << polarity);
                expectInverseMatchesReference(freq);
            }
        }
    }
}

TEST(TransformQuantize, AllZeroLevelsReconstructToZeros)
{
    CoeffBlock zero;
    zero.fill(0);
    for (int qp : {0, 32, kMaxQp}) {
        ResidualBlock recon;
        recon.fill(77);
        reconstructResidual(zero, qp, recon);
        for (auto v : recon)
            ASSERT_EQ(v, 0) << "qp " << qp;
        // The transform the skip stands in for gives the same zeros.
        Spectrum freq;
        dequantize(zero, qp, freq);
        ResidualBlock full;
        reference().inverse(freq, full);
        EXPECT_EQ(recon, full);
    }
}

TEST(TransformQuantize, TrellisReturnsFinalCountAndReconstructsFinalLevels)
{
    constexpr int kQp = 24;
    // The encoder's RD lambda at this qp: large enough to engage the
    // trellis (lambda * 5 bits > qstep^2).
    const double lambda = 0.57 * qstep(kQp) * qstep(kQp);
    wsva::Rng rng(23);
    int trimmed_blocks = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const ResidualBlock in = randomResidual(rng, 12);
        CoeffBlock plain;
        ResidualBlock plain_recon;
        const int plain_nz = transformQuantize(in, kQp, 0.33, false, lambda,
                                               plain, plain_recon);
        CoeffBlock levels;
        ResidualBlock recon;
        const int nz =
            transformQuantize(in, kQp, 0.33, true, lambda, levels, recon);

        int counted = 0;
        for (auto l : levels)
            counted += l != 0;
        ASSERT_EQ(nz, counted) << "trial " << trial;
        ResidualBlock expected;
        reconstructResidual(levels, kQp, expected);
        ASSERT_EQ(recon, expected) << "trial " << trial;
        ASSERT_LE(nz, plain_nz);
        if (nz < plain_nz)
            ++trimmed_blocks;
    }
    // The inputs must actually exercise the trellis.
    EXPECT_GT(trimmed_blocks, 0);
}

TEST(Dct, DcOfFlatBlock)
{
    ResidualBlock flat;
    flat.fill(100);
    std::array<int32_t, kTxCoeffs> freq;
    forwardDct(flat, freq);
    // Orthonormal DCT: DC = 8 * value.
    EXPECT_NEAR(freq[0], 800, 2);
    for (size_t i = 1; i < kTxCoeffs; ++i)
        ASSERT_NEAR(freq[i], 0, 2) << "coeff " << i;
}

TEST(Dct, InverseRecoversInput)
{
    wsva::Rng rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        ResidualBlock in = randomResidual(rng, 255);
        std::array<int32_t, kTxCoeffs> freq;
        ResidualBlock out;
        forwardDct(in, freq);
        inverseDct(freq, out);
        for (size_t i = 0; i < kTxCoeffs; ++i)
            ASSERT_NEAR(in[i], out[i], 2) << "trial " << trial;
    }
}

TEST(Dct, LinearityUnderScaling)
{
    ResidualBlock in;
    for (size_t i = 0; i < kTxCoeffs; ++i)
        in[i] = static_cast<int16_t>((i * 7) % 50);
    ResidualBlock doubled;
    for (size_t i = 0; i < kTxCoeffs; ++i)
        doubled[i] = static_cast<int16_t>(in[i] * 2);
    std::array<int32_t, kTxCoeffs> f1;
    std::array<int32_t, kTxCoeffs> f2;
    forwardDct(in, f1);
    forwardDct(doubled, f2);
    for (size_t i = 0; i < kTxCoeffs; ++i)
        ASSERT_NEAR(f2[i], 2 * f1[i], 4);
}

TEST(Dct, EnergyConservation)
{
    wsva::Rng rng(10);
    ResidualBlock in = randomResidual(rng, 100);
    std::array<int32_t, kTxCoeffs> freq;
    forwardDct(in, freq);
    double spatial = 0;
    double spectral = 0;
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        spatial += static_cast<double>(in[i]) * in[i];
        spectral += static_cast<double>(freq[i]) * freq[i];
    }
    EXPECT_NEAR(spectral / spatial, 1.0, 0.02);
}

TEST(Qstep, GrowsExponentially)
{
    EXPECT_NEAR(qstep(8) / qstep(0), 2.0, 1e-9);
    EXPECT_NEAR(qstep(40) / qstep(32), 2.0, 1e-9);
    EXPECT_LT(qstep(0), 1.0);
    EXPECT_GT(qstep(63), 150.0);
}

class QuantRoundTrip : public testing::TestWithParam<int>
{
};

TEST_P(QuantRoundTrip, ReconstructionErrorBoundedByQstep)
{
    const int qp = GetParam();
    wsva::Rng rng(100 + static_cast<uint64_t>(qp));
    ResidualBlock in = randomResidual(rng, 200);
    CoeffBlock levels;
    ResidualBlock recon;
    transformQuantize(in, qp, 0.5, false, 0.0, levels, recon);
    const double step = qstep(qp);
    // Per-coefficient quantization error is <= step/2; the spatial-
    // domain error at any sample is a signed combination of 64 such
    // errors, so allow a few multiples of the step.
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        ASSERT_NEAR(in[i], recon[i], 3.0 * step + 4)
            << "qp " << qp << " index " << i;
    }
    // And the block-level RMS error must be well under one step.
    double sse = 0;
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        const double d = static_cast<double>(in[i]) - recon[i];
        sse += d * d;
    }
    EXPECT_LE(std::sqrt(sse / kTxCoeffs), step);
}

TEST_P(QuantRoundTrip, HigherQpNeverMoreNonzeros)
{
    const int qp = GetParam();
    if (qp + 8 > kMaxQp)
        GTEST_SKIP();
    wsva::Rng rng(200 + static_cast<uint64_t>(qp));
    ResidualBlock in = randomResidual(rng, 80);
    CoeffBlock lo_levels;
    CoeffBlock hi_levels;
    ResidualBlock scratch;
    const int nz_lo =
        transformQuantize(in, qp, 0.4, false, 0.0, lo_levels, scratch);
    const int nz_hi =
        transformQuantize(in, qp + 8, 0.4, false, 0.0, hi_levels, scratch);
    EXPECT_GE(nz_lo, nz_hi);
}

INSTANTIATE_TEST_SUITE_P(QpSweep, QuantRoundTrip,
                         testing::Values(0, 8, 16, 24, 32, 40, 48, 56, 63));

TEST(Quant, DeadzoneShrinksLevels)
{
    wsva::Rng rng(11);
    ResidualBlock in = randomResidual(rng, 60);
    std::array<int32_t, kTxCoeffs> freq;
    forwardDct(in, freq);
    CoeffBlock generous;
    CoeffBlock strict;
    quantize(freq, 30, 0.49, generous);
    quantize(freq, 30, 0.10, strict);
    int n_gen = 0;
    int n_strict = 0;
    for (size_t i = 0; i < kTxCoeffs; ++i) {
        n_gen += generous[i] != 0;
        n_strict += strict[i] != 0;
        ASSERT_LE(std::abs(strict[i]), std::abs(generous[i]));
    }
    EXPECT_LE(n_strict, n_gen);
}

TEST(Quant, ZeroInputStaysZero)
{
    ResidualBlock zero;
    zero.fill(0);
    CoeffBlock levels;
    ResidualBlock recon;
    const int nz =
        transformQuantize(zero, 20, 0.4, false, 0.0, levels, recon);
    EXPECT_EQ(nz, 0);
    for (auto v : recon)
        ASSERT_EQ(v, 0);
}

TEST(Zigzag, IsAPermutation)
{
    std::set<int> seen(zigzagOrder().begin(), zigzagOrder().end());
    EXPECT_EQ(seen.size(), 64u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 63);
}

TEST(Zigzag, StartsAlongKnownPath)
{
    const auto &z = zigzagOrder();
    // Standard 8x8 zigzag: 0, 1, 8, 16, 9, 2, 3, 10, ...
    EXPECT_EQ(z[0], 0);
    EXPECT_EQ(z[1], 1);
    EXPECT_EQ(z[2], 8);
    EXPECT_EQ(z[3], 16);
    EXPECT_EQ(z[4], 9);
    EXPECT_EQ(z[5], 2);
}

TEST(Zigzag, OrdersByFrequencyRadius)
{
    // Later scan positions should have, on average, higher u+v.
    const auto &z = zigzagOrder();
    double first_half = 0;
    double second_half = 0;
    for (int i = 0; i < 32; ++i) {
        first_half += z[static_cast<size_t>(i)] / 8 +
                      z[static_cast<size_t>(i)] % 8;
        second_half += z[static_cast<size_t>(i + 32)] / 8 +
                       z[static_cast<size_t>(i + 32)] % 8;
    }
    EXPECT_LT(first_half, second_half);
}

} // namespace
} // namespace wsva::video::codec
