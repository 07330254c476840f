/**
 * @file
 * Differential tests of the codec's AVX2 kernels against the scalar
 * kernels they stand in for: random blocks, the inputs that drive each
 * int32 bound to its edge, the decoder's extreme levels, and SAD
 * around its early-exit bound. Every test skips on a CPU without AVX2.
 * The suite's name starts with Dct, so the asan preset runs it.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "support/kernel_targets.h"
#include "video/codec/mc.h"
#include "video/codec/transform.h"

namespace wsva::video::codec {
namespace {

using testsupport::KernelTarget;
using testsupport::ScopedKernelTarget;
using Spectrum = std::array<int32_t, kTxCoeffs>;

/** @p f's result on the AVX2 kernels, then on the scalar ones. */
template <typename F>
auto
onBothTargets(F f)
{
    std::pair<decltype(f()), decltype(f())> results;
    {
        const ScopedKernelTarget avx2(KernelTarget::Avx2);
        results.first = f();
    }
    {
        const ScopedKernelTarget scalar(KernelTarget::Scalar);
        results.second = f();
    }
    return results;
}

class DctKernelTargets : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!cpuHasAvx2())
            GTEST_SKIP() << "this CPU has no AVX2";
    }
};

/** Sign of basis entry b[u][k]: a DCT-II cosine, never zero. */
int
basisSign(int u, int k)
{
    return std::cos((2 * k + 1) * u * M_PI / (2.0 * kTxSize)) < 0 ? -1 : 1;
}

/** The block whose signs follow basis rows u (down the columns) and v
 *  (along the rows): stage 1 and stage 2 both reach their row's
 *  largest sum. */
template <typename Block>
Block
basisAligned(int u, int v, int amplitude)
{
    Block block;
    for (int k = 0; k < kTxSize; ++k)
        for (int c = 0; c < kTxSize; ++c)
            block[static_cast<size_t>(k * kTxSize + c)] =
                static_cast<typename Block::value_type>(
                    basisSign(u, k) * basisSign(v, c) * amplitude);
    return block;
}

/** Everything transformQuantize produces, for comparison. */
struct RoundTrip
{
    CoeffBlock levels{};
    ResidualBlock recon{};
    int nonzero = 0;

    bool operator==(const RoundTrip &) const = default;
};

void
expectTargetsAgree(const ResidualBlock &in, int qp, double deadzone)
{
    const auto forward = onBothTargets([&] {
        Spectrum freq;
        forwardDct(in, freq);
        return freq;
    });
    ASSERT_EQ(forward.first, forward.second);
    const auto levels = onBothTargets([&] {
        CoeffBlock l;
        quantize(forward.second, qp, deadzone, l);
        return l;
    });
    ASSERT_EQ(levels.first, levels.second);
    const auto recon = onBothTargets([&] {
        ResidualBlock r;
        reconstructResidual(levels.second, qp, r);
        return r;
    });
    ASSERT_EQ(recon.first, recon.second);
    for (bool coeff_opt : {false, true}) {
        const double lambda = 4.0 * qstep(qp) * qstep(qp);
        const auto trip = onBothTargets([&] {
            RoundTrip t;
            t.nonzero = transformQuantize(in, qp, deadzone, coeff_opt,
                                          lambda, t.levels, t.recon);
            return t;
        });
        ASSERT_TRUE(trip.first == trip.second) << "coeff_opt " << coeff_opt;
    }
    const auto zero = onBothTargets(
        [&] { return provablyZeroBlock(in, qp, deadzone); });
    ASSERT_EQ(zero.first, zero.second);
}

TEST_F(DctKernelTargets, RandomBlocksMatchScalar)
{
    wsva::Rng rng(31);
    for (int amplitude : {1, 20, 255, 256, 32767}) {
        for (int trial = 0; trial < 300; ++trial) {
            ResidualBlock in;
            for (auto &v : in)
                v = static_cast<int16_t>(
                    rng.uniformRange(-amplitude, amplitude));
            const int qp = static_cast<int>(rng.uniformInt(kMaxQp + 1));
            for (double dz : {0.0, 0.33, 0.5, 0.99}) {
                SCOPED_TRACE(testing::Message()
                             << "amplitude " << amplitude << " trial "
                             << trial << " qp " << qp << " dz " << dz);
                expectTargetsAgree(in, qp, dz);
            }
        }
    }
}

TEST_F(DctKernelTargets, EachBasisRowAtItsInt32Edge)
{
    // |x| = 255 takes the int32 forward with stage 2 within 2^23 of
    // overflow for u in {0, 4}; |x| = 256 must take the int64 path. At
    // qp 0 (scale 2^20) and the largest offset the int32 quantizer
    // admits, its products reach 2,041 * 2^20 - 1 for the DC row.
    const double widest_dz = 1.0 - 1.0 / (1 << 20);
    for (int amplitude : {255, 256}) {
        for (int u = 0; u < kTxSize; ++u) {
            for (int v = 0; v < kTxSize; ++v) {
                for (int polarity : {1, -1}) {
                    SCOPED_TRACE(testing::Message()
                                 << "amplitude " << amplitude << " u " << u
                                 << " v " << v << " polarity " << polarity);
                    const auto in = basisAligned<ResidualBlock>(
                        u, v, polarity * amplitude);
                    expectTargetsAgree(in, 0, widest_dz);
                    expectTargetsAgree(in, 32, 0.33);
                }
            }
        }
    }
    // The forward bound is tight: the DC of a flat 255 block is 2,040.
    Spectrum freq;
    ResidualBlock flat;
    flat.fill(255);
    forwardDct(flat, freq);
    EXPECT_EQ(freq[0], 2040);
}

/**
 * The inverse guard's bound, computed as DESIGN.md §4 states it: with
 * S_v the column sums of |F| and M the largest |basis| entry,
 * M * sum_v ceil(M * S_v / 64) + 2^19. The int32 inverse runs only
 * when it is at most INT32_MAX.
 */
int64_t
inverseBound(const Spectrum &freq)
{
    int64_t m = 0;
    for (int u = 0; u < kTxSize; ++u) {
        for (int k = 0; k < kTxSize; ++k) {
            const double a = u == 0 ? std::sqrt(1.0 / kTxSize)
                                    : std::sqrt(2.0 / kTxSize);
            const double b =
                a * std::cos((2 * k + 1) * u * M_PI / (2.0 * kTxSize));
            m = std::max<int64_t>(m, std::labs(std::lround(b * 8192)));
        }
    }
    int64_t stage1 = 0;
    for (int v = 0; v < kTxSize; ++v) {
        int64_t s = 0;
        for (int u = 0; u < kTxSize; ++u)
            s += std::abs(freq[static_cast<size_t>(u * kTxSize + v)]);
        stage1 += (m * s + 63) / 64;
    }
    return m * stage1 + (1 << 19);
}

TEST_F(DctKernelTargets, InverseAtTheGuardBoundAndOneUnitOver)
{
    // Patterns: an impulse on the largest basis entry (row 1, k = 0),
    // where the bound is nearly the real stage-2 sum, and spectra
    // whose signs follow the basis, which spread the same bound over
    // every coefficient.
    std::vector<Spectrum> patterns;
    Spectrum impulse{};
    impulse[1 * kTxSize + 1] = 1;
    patterns.push_back(impulse);
    for (int k : {0, 3, 7})
        for (int l : {0, 5})
            patterns.push_back(basisAligned<Spectrum>(k, l, 1));
    for (const Spectrum &pattern : patterns) {
        for (int polarity : {1, -1}) {
            const auto scaled = [&](int64_t amplitude) {
                Spectrum s;
                for (size_t i = 0; i < kTxCoeffs; ++i)
                    s[i] = static_cast<int32_t>(polarity * pattern[i] *
                                                amplitude);
                return s;
            };
            // The largest amplitude the guard admits.
            int64_t lo = 0;
            int64_t hi = 1 << 24;
            while (hi - lo > 1) {
                const int64_t mid = (lo + hi) / 2;
                (inverseBound(scaled(mid)) <= INT32_MAX ? lo : hi) = mid;
            }
            const Spectrum at = scaled(lo);
            // One unit over: one coefficient one step further out.
            Spectrum over = at;
            for (size_t i = 0; i < kTxCoeffs && inverseBound(over) <=
                                                    INT32_MAX; ++i)
                over[i] += polarity * pattern[i];
            ASSERT_LE(inverseBound(at), INT32_MAX);
            ASSERT_GT(inverseBound(over), INT32_MAX);
            for (const Spectrum &freq : {at, over}) {
                const auto out = onBothTargets([&] {
                    ResidualBlock r;
                    inverseDct(freq, r);
                    return r;
                });
                ASSERT_EQ(out.first, out.second)
                    << "amplitude " << lo << " polarity " << polarity;
            }
        }
    }
}

TEST_F(DctKernelTargets, DecoderExtremeLevelsMatchScalar)
{
    // Levels from an untrusted bitstream: +-32,767 at qp 63 dequantize
    // to +-32,767 * 211, far past the int32 guard.
    std::vector<CoeffBlock> blocks;
    for (int k = 0; k < kTxSize; ++k)
        for (int l = 0; l < kTxSize; ++l)
            for (int polarity : {1, -1})
                blocks.push_back(
                    basisAligned<CoeffBlock>(k, l, polarity * 32767));
    CoeffBlock dc{};
    dc[0] = 32767;
    blocks.push_back(dc);
    wsva::Rng rng(32);
    for (int trial = 0; trial < 200; ++trial) {
        CoeffBlock levels;
        for (auto &l : levels)
            l = static_cast<int16_t>(rng.uniformRange(-32768, 32767));
        blocks.push_back(levels);
    }
    for (const CoeffBlock &levels : blocks) {
        for (int qp : {32, kMaxQp}) {
            const auto out = onBothTargets([&] {
                ResidualBlock r;
                reconstructResidual(levels, qp, r);
                return r;
            });
            ASSERT_EQ(out.first, out.second) << "qp " << qp;
        }
    }
}

TEST_F(DctKernelTargets, QuantizeOutsideTheInt32GuardMatchesInt64)
{
    // The int32 quantizer needs 0 <= offset < 2^20 and |coeff| <=
    // 2,040. Deadzones from 1 up, and coefficients past 2,040 (up to
    // INT32_MIN, whose int32 absolute value stays negative), take the
    // int64 path. At qp 0 an offset of 2^32 (deadzone 4,096) or a
    // coefficient of INT32_MAX would wrap an int32 lane.
    Spectrum edge;
    for (size_t i = 0; i < kTxCoeffs; ++i)
        edge[i] = (i % 2 ? -1 : 1) * static_cast<int32_t>(2040 - i);
    Spectrum wide = edge;
    wide[5] = 2041;
    wide[17] = -40000;
    wide[40] = INT32_MAX;
    wide[63] = INT32_MIN;
    for (const Spectrum &coeffs : {edge, wide}) {
        for (double dz : {0.0, 0.45, 1.0 - 1.0 / (1 << 20), 1.0, 1.5,
                          2047.0, 4096.0, 1e6}) {
            for (int qp : {0, 32, kMaxQp}) {
                const auto levels = onBothTargets([&] {
                    CoeffBlock l;
                    quantize(coeffs, qp, dz, l);
                    return l;
                });
                ASSERT_EQ(levels.first, levels.second)
                    << "dz " << dz << " qp " << qp;
            }
        }
    }
    // Outside quantize's domain altogether.
    CoeffBlock levels;
    EXPECT_DEATH(quantize(edge, 0, -0.01, levels), "deadzone");
}

TEST_F(DctKernelTargets, SadAtAndAroundTheBound)
{
    wsva::Rng rng(33);
    Plane ref(64, 64);
    for (auto &px : ref.data())
        px = static_cast<uint8_t>(rng.uniformInt(256));
    for (int n : {8, 16}) {
        for (int trial = 0; trial < 50; ++trial) {
            uint8_t cur[16 * 16];
            uint8_t block[16 * 16];
            for (int i = 0; i < n * n; ++i)
                cur[i] = static_cast<uint8_t>(rng.uniformInt(256));
            // Inside the plane (read in place), then across its edge
            // (edge-emulated, row stride n).
            const int x = trial % 2 ? 20 : 64 - n / 2;
            const int y = trial % 3 ? 12 : -3;
            extractBlock(ref, x, y, n, block);
            const auto full =
                onBothTargets([&] { return blockSad(cur, block, n); });
            ASSERT_EQ(full.first, full.second) << "n " << n;
            const uint32_t sad = full.second;
            for (uint32_t bound : {sad / 2, sad - 1, sad, sad + 1}) {
                const auto bounded = onBothTargets([&] {
                    return blockSadBounded(cur, block, n, bound);
                });
                const auto against = onBothTargets([&] {
                    return sadAgainstBlock(cur, ref, x, y, n, bound);
                });
                for (uint32_t got : {bounded.first, bounded.second,
                                     against.first, against.second}) {
                    if (sad < bound)
                        ASSERT_EQ(got, sad) << "n " << n << " bound "
                                            << bound;
                    else
                        ASSERT_GE(got, bound) << "n " << n << " bound "
                                              << bound;
                }
            }
        }
    }
}

} // namespace
} // namespace wsva::video::codec
