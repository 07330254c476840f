/**
 * @file
 * Differential tests of the macroblock helpers' SSE2 loops and
 * mask-driven walks against the per-pixel and 64-position loops they
 * replaced: the rate estimate and the coefficient writer's last
 * significant level (CoeffBits), the residual and the add-and-clamp
 * reconstruction with its distortion (ReconstructBlock), and the
 * compound average of inter prediction (InterPrediction).
 */

#include "video/codec/mb_common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "video/codec/golomb.h"

namespace wsva::video::codec {
namespace {

// --- CoeffBits ----------------------------------------------------------

/** Scan position of the last nonzero level, walking all 64. */
int
referenceLastSig(const CoeffBlock &levels)
{
    const auto &scan = zigzagOrder();
    int last_sig = -1;
    for (int si = 0; si < kTxCoeffs; ++si) {
        if (levels[static_cast<size_t>(scan[static_cast<size_t>(si)])] != 0)
            last_sig = si;
    }
    return last_sig;
}

/** estimateCoeffBits as the 64-position walk it replaced. */
int
referenceCoeffBits(const CoeffBlock &levels)
{
    const auto &scan = zigzagOrder();
    const int last_sig = referenceLastSig(levels);
    if (last_sig < 0)
        return 1;
    int bits = 2;
    for (int si = 0; si <= last_sig; ++si) {
        const int16_t level =
            levels[static_cast<size_t>(scan[static_cast<size_t>(si)])];
        bits += 2;
        if (level != 0)
            bits += 1 + ueBits(static_cast<uint32_t>(std::abs(level)) - 1);
    }
    return bits;
}

/** A SyntaxWriter that records every call in order. */
class RecordingWriter : public SyntaxWriter
{
  public:
    /** (kind, context or width, value) of one call. */
    using Call = std::tuple<char, int, uint32_t>;

    void
    writeBit(int ctx, int bit) override
    {
        calls.emplace_back('b', ctx, static_cast<uint32_t>(bit));
    }
    void
    writeUInt(int ctx, uint32_t value) override
    {
        calls.emplace_back('u', ctx, value);
    }
    void
    writeLiteral(uint32_t value, int count) override
    {
        calls.emplace_back('l', count, value);
    }
    double bitsWritten() const override { return 0.0; }
    std::vector<uint8_t> finish() override { return {}; }

    std::vector<Call> calls;
};

/** writeCoeffBlock as the 64-position walk it replaced. */
void
referenceWriteCoeffBlock(SyntaxWriter &writer, const CoeffBlock &levels)
{
    const auto &scan = zigzagOrder();
    const int last_sig = referenceLastSig(levels);
    writer.writeBit(kCtxCbf, last_sig >= 0 ? 1 : 0);
    if (last_sig < 0)
        return;
    for (int si = 0; si <= last_sig; ++si) {
        const int band = coeffBand(si);
        writer.writeBit(kCtxEobBand0 + band, 0);
        const int16_t level =
            levels[static_cast<size_t>(scan[static_cast<size_t>(si)])];
        writer.writeBit(kCtxSigBand0 + band, level != 0 ? 1 : 0);
        if (level != 0) {
            writer.writeLiteral(level < 0 ? 1u : 0u, 1);
            writer.writeUInt(kCtxMagBand0 + band,
                             static_cast<uint32_t>(std::abs(level)) - 1);
        }
    }
    if (last_sig < kTxCoeffs - 1)
        writer.writeBit(kCtxEobBand0 + coeffBand(last_sig + 1), 1);
}

/** The block with @p level at scan position @p si and zeros elsewhere. */
CoeffBlock
oneLevelAt(int si, int16_t level)
{
    CoeffBlock b{};
    b[static_cast<size_t>(zigzagOrder()[static_cast<size_t>(si)])] = level;
    return b;
}

/** A block whose levels are nonzero with probability @p density, with
 *  magnitudes up to @p max_abs. */
CoeffBlock
randomLevels(Rng &rng, double density, int max_abs)
{
    CoeffBlock b{};
    for (auto &l : b) {
        if (rng.bernoulli(density)) {
            const int magnitude = rng.uniformRange(1, max_abs);
            l = static_cast<int16_t>(rng.bernoulli(0.5) ? -magnitude
                                                        : magnitude);
        }
    }
    return b;
}

/** Blocks at the edges of the walk and of int16, then random ones. */
std::vector<CoeffBlock>
coeffCases()
{
    std::vector<CoeffBlock> out;
    out.push_back(CoeffBlock{});
    for (int16_t level : {int16_t{1}, int16_t{-1}, int16_t{7}}) {
        out.push_back(oneLevelAt(0, level));
        out.push_back(oneLevelAt(kTxCoeffs - 1, level));
    }
    // +-1 tails behind a low-frequency level, as the trellis sees them.
    for (int tail = 1; tail <= 43; tail += 7) {
        CoeffBlock b = oneLevelAt(0, 40);
        for (int si = kTxCoeffs - tail; si < kTxCoeffs; ++si)
            b[static_cast<size_t>(zigzagOrder()[static_cast<size_t>(si)])] =
                static_cast<int16_t>(si % 2 ? 1 : -1);
        out.push_back(b);
    }
    // The int16 extremes: 32,767 and -32,768 have the longest codes.
    for (int16_t level : {int16_t{32767}, int16_t{-32767}, int16_t{-32768}}) {
        out.push_back(oneLevelAt(0, level));
        out.push_back(oneLevelAt(kTxCoeffs - 1, level));
        CoeffBlock full;
        full.fill(level);
        out.push_back(full);
    }
    Rng rng(23);
    for (int i = 0; i < 200; ++i) {
        out.push_back(randomLevels(rng, 0.05, 4));   // sparse
        out.push_back(randomLevels(rng, 0.9, 300));  // dense
        out.push_back(randomLevels(rng, 0.3, 32767));
    }
    return out;
}

TEST(CoeffBits, EstimateMatchesTheSixtyFourPositionWalk)
{
    for (const CoeffBlock &levels : coeffCases())
        ASSERT_EQ(estimateCoeffBits(levels), referenceCoeffBits(levels));
}

TEST(CoeffBits, ExtremeLevelsCostTheirGolombLength)
{
    // One level at scan 0: cbf + EOB, EOB-continue + sig, then sign and
    // ue(|level| - 1): 32 bits for 32,768, 30 for 32,767.
    EXPECT_EQ(estimateCoeffBits(oneLevelAt(0, -32768)), 2 + 2 + 32);
    EXPECT_EQ(estimateCoeffBits(oneLevelAt(0, 32767)), 2 + 2 + 30);
    EXPECT_EQ(estimateCoeffBits(oneLevelAt(kTxCoeffs - 1, 1)),
              2 + 2 * kTxCoeffs + 2);
}

TEST(CoeffBits, WriterCodesWhatTheSixtyFourPositionWalkCodes)
{
    for (const CoeffBlock &levels : coeffCases()) {
        RecordingWriter got;
        RecordingWriter want;
        writeCoeffBlock(got, levels);
        referenceWriteCoeffBlock(want, levels);
        ASSERT_EQ(got.calls, want.calls);
    }
}

TEST(CoeffBits, ZigzagInverseInvertsTheScan)
{
    const auto &scan = zigzagOrder();
    const auto &inverse = zigzagInverse();
    for (int si = 0; si < kTxCoeffs; ++si)
        EXPECT_EQ(inverse[static_cast<size_t>(scan[static_cast<size_t>(si)])],
                  si);
}

// --- ReconstructBlock ---------------------------------------------------

/** The per-pixel add-and-clamp and SSE the helper replaced. */
uint32_t
referenceReconstruct(const uint8_t *pred, int stride,
                     const ResidualBlock &rres, uint8_t *out,
                     int out_stride, const uint8_t *src)
{
    uint32_t sse = 0;
    for (int r = 0; r < kTxSize; ++r) {
        for (int c = 0; c < kTxSize; ++c) {
            const int v = pred[r * stride + c] +
                          rres[static_cast<size_t>(r * kTxSize + c)];
            const auto o = static_cast<uint8_t>(std::clamp(v, 0, 255));
            out[r * out_stride + c] = o;
            if (src != nullptr) {
                const int d = src[r * stride + c] - o;
                sse += static_cast<uint32_t>(d * d);
            }
        }
    }
    return sse;
}

/** Pixel buffers of 10 rows of 24, so that 8x8 blocks sit at a stride
 *  other than 8 and at unaligned offsets. */
constexpr size_t kBufferSize = 24 * 10;

std::vector<uint8_t>
randomPixels(Rng &rng)
{
    std::vector<uint8_t> p(kBufferSize);
    for (auto &v : p)
        v = static_cast<uint8_t>(rng.uniformInt(256));
    return p;
}

std::vector<uint8_t>
flatPixels(uint8_t value)
{
    return std::vector<uint8_t>(kBufferSize, value);
}

TEST(ReconstructBlock, SubtractMatchesPerPixelDifference)
{
    Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        const auto src = randomPixels(rng);
        const auto pred = randomPixels(rng);
        const int off = trial % 9;
        ResidualBlock got;
        subtractBlock8x8(src.data() + off, pred.data() + off, 24, got);
        for (int r = 0; r < kTxSize; ++r)
            for (int c = 0; c < kTxSize; ++c)
                ASSERT_EQ(got[static_cast<size_t>(r * kTxSize + c)],
                          src[static_cast<size_t>(off + r * 24 + c)] -
                              pred[static_cast<size_t>(off + r * 24 + c)]);
    }
}

/** Runs the helper and the reference on one case and compares the
 *  outputs, the pixels around them and the SSE. */
void
expectReconstructMatches(const std::vector<uint8_t> &pred,
                         const ResidualBlock &rres,
                         const std::vector<uint8_t> &src, int off,
                         bool with_src)
{
    // The output has its own stride, and a guard band around it that
    // must stay untouched.
    std::vector<uint8_t> got(32 * 10, 0xa5);
    std::vector<uint8_t> want(32 * 10, 0xa5);
    const uint8_t *s = with_src ? src.data() + off : nullptr;
    const uint32_t got_sse = reconstructBlock8x8(
        pred.data() + off, 24, rres, got.data() + 33, 32, s);
    const uint32_t want_sse = referenceReconstruct(
        pred.data() + off, 24, rres, want.data() + 33, 32, s);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_sse, want_sse);
}

TEST(ReconstructBlock, MatchesPerPixelClampAndSse)
{
    Rng rng(6);
    for (int trial = 0; trial < 100; ++trial) {
        ResidualBlock rres;
        for (auto &v : rres)
            v = static_cast<int16_t>(trial % 2 ? rng.uniformRange(-300, 300)
                                               : rng.uniformRange(-32768,
                                                                  32767));
        expectReconstructMatches(randomPixels(rng), rres, randomPixels(rng),
                                 trial % 9, trial % 3 != 0);
    }
}

TEST(ReconstructBlock, SaturatesAtTheInt16Extremes)
{
    // pred 255 + rres 32,767 overflows int16; the add saturates and the
    // pack clamps it to 255.
    ResidualBlock up;
    up.fill(32767);
    const auto white = flatPixels(255);
    const auto black = flatPixels(0);
    expectReconstructMatches(white, up, black, 0, true);
    // pred 0 + rres -32,768 is the lowest sum; it clamps to 0.
    ResidualBlock down;
    down.fill(-32768);
    expectReconstructMatches(black, down, white, 3, true);
    std::vector<uint8_t> out(8 * 8);
    EXPECT_EQ(reconstructBlock8x8(white.data(), 24, up, out.data(), 8,
                                  black.data()),
              64u * 255u * 255u);
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](uint8_t v) { return v == 255; }));
    EXPECT_EQ(reconstructBlock8x8(black.data(), 24, down, out.data(), 8,
                                  white.data()),
              64u * 255u * 255u);
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](uint8_t v) { return v == 0; }));
}

TEST(ReconstructBlock, FullScaleDifferenceOverAWholeBlock)
{
    // |d| = 255 at all 64 samples: the largest SSE a block can have,
    // 4,161,600, in int32 lanes.
    const ResidualBlock zero{};
    const auto white = flatPixels(255);
    const auto black = flatPixels(0);
    std::vector<uint8_t> out(8 * 8);
    EXPECT_EQ(reconstructBlock8x8(black.data(), 24, zero, out.data(), 8,
                                  white.data()),
              4161600u);
    EXPECT_EQ(reconstructBlock8x8(white.data(), 24, zero, out.data(), 8,
                                  black.data()),
              4161600u);
    expectReconstructMatches(black, zero, white, 5, true);
    // Without a source block there is no distortion to report.
    EXPECT_EQ(reconstructBlock8x8(white.data(), 24, zero, out.data(), 8,
                                  nullptr),
              0u);
}

// --- InterPrediction ----------------------------------------------------

/** A random bordered frame, extended, as a reference slot holds it. */
std::shared_ptr<const Frame>
randomRef(uint64_t seed)
{
    Rng rng(seed);
    auto f = std::make_shared<Frame>(64, 48, 0, kRefBorder);
    for (int p = 0; p < 3; ++p) {
        Plane &plane = f->plane(p);
        for (int y = 0; y < plane.height(); ++y)
            for (int x = 0; x < plane.width(); ++x)
                plane.at(x, y) = static_cast<uint8_t>(rng.uniformInt(256));
    }
    f->extendBorder();
    return f;
}

TEST(InterPrediction, CompoundAveragesBothPredictionsRoundingUp)
{
    const RefFrames refs = {randomRef(1), randomRef(2), randomRef(3)};
    Rng rng(9);
    for (int trial = 0; trial < 64; ++trial) {
        const Mv mv{static_cast<int16_t>(rng.uniformRange(-40, 40)),
                    static_cast<int16_t>(rng.uniformRange(-40, 40))};
        const Mv mv2{static_cast<int16_t>(rng.uniformRange(-40, 40)),
                     static_cast<int16_t>(rng.uniformRange(-40, 40))};
        const int ref = trial % kNumRefSlots;
        const int ref2 = (trial / kNumRefSlots) % kNumRefSlots;
        const int x = 16 * (trial % 3);
        const int y = 16 * (trial % 2);
        const Mv mvs[4] = {mv, mv, mv, mv};
        const int refs_idx[4] = {ref, ref, ref, ref};
        const Mv mvs2[4] = {mv2, mv2, mv2, mv2};
        const int refs2_idx[4] = {ref2, ref2, ref2, ref2};

        uint8_t a[3][256];
        uint8_t b[3][256];
        uint8_t got[3][256];
        buildInterPrediction(refs, mvs, refs_idx, false, false, 0, Mv{}, x,
                             y, a[0], a[1], a[2]);
        buildInterPrediction(refs, mvs2, refs2_idx, false, false, 0, Mv{}, x,
                             y, b[0], b[1], b[2]);
        buildInterPrediction(refs, mvs, refs_idx, false, true, ref2, mv2, x,
                             y, got[0], got[1], got[2]);
        for (int p = 0; p < 3; ++p) {
            const int count = p == 0 ? kMbSize * kMbSize : 64;
            for (int i = 0; i < count; ++i)
                ASSERT_EQ(got[p][i], (a[p][i] + b[p][i] + 1) >> 1)
                    << "plane " << p << " sample " << i;
        }
    }
}

} // namespace
} // namespace wsva::video::codec
