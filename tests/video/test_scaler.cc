#include "video/scaler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace wsva::video {
namespace {

TEST(Scaler, IdentityWhenSameSize)
{
    Plane p(16, 16, 50);
    p.at(3, 3) = 200;
    Plane q = scalePlane(p, 16, 16);
    EXPECT_EQ(p, q);
}

TEST(Scaler, DownscalePreservesFlatColor)
{
    Plane p(64, 64, 90);
    Plane q = scalePlane(p, 16, 16);
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            ASSERT_EQ(q.at(x, y), 90);
}

TEST(Scaler, DownscaleAveragesBlocks)
{
    // 2x2 checkerboard of 0/255 averages to ~128 at half size.
    Plane p(4, 4);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            p.at(x, y) = ((x + y) % 2) ? 255 : 0;
    Plane q = scalePlane(p, 2, 2);
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 2; ++x)
            ASSERT_NEAR(q.at(x, y), 128, 1);
}

TEST(Scaler, UpscalePreservesFlatColor)
{
    Plane p(8, 8, 33);
    Plane q = scalePlane(p, 32, 32);
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            ASSERT_EQ(q.at(x, y), 33);
}

TEST(Scaler, FrameScaleKeepsChromaGeometry)
{
    Frame f(64, 36);
    Frame g = scaleFrame(f, 32, 18);
    EXPECT_EQ(g.width(), 32);
    EXPECT_EQ(g.height(), 18);
    EXPECT_EQ(g.u().width(), 16);
    EXPECT_EQ(g.u().height(), 9);
    EXPECT_TRUE(g.valid());
}

TEST(Scaler, NonIntegerRatioDownscale)
{
    Plane p(30, 30, 120);
    Plane q = scalePlane(p, 14, 14);
    EXPECT_EQ(q.width(), 14);
    for (int y = 0; y < 14; ++y)
        for (int x = 0; x < 14; ++x)
            ASSERT_EQ(q.at(x, y), 120);
}

/** The per-pixel area average that scalePlane's downscale replaced:
 *  both spans recomputed at every output sample, reads through at(). */
Plane
referenceBoxDownscale(const Plane &src, int dw, int dh)
{
    Plane dst(dw, dh);
    const double sx = static_cast<double>(src.width()) / dw;
    const double sy = static_cast<double>(src.height()) / dh;
    for (int y = 0; y < dh; ++y) {
        const int y0 = static_cast<int>(std::floor(y * sy));
        const int y1 = std::max(y0 + 1,
            static_cast<int>(std::ceil((y + 1) * sy)));
        for (int x = 0; x < dw; ++x) {
            const int x0 = static_cast<int>(std::floor(x * sx));
            const int x1 = std::max(x0 + 1,
                static_cast<int>(std::ceil((x + 1) * sx)));
            uint32_t acc = 0;
            uint32_t n = 0;
            for (int yy = y0; yy < y1 && yy < src.height(); ++yy) {
                for (int xx = x0; xx < x1 && xx < src.width(); ++xx) {
                    acc += src.at(xx, yy);
                    ++n;
                }
            }
            dst.at(x, y) = static_cast<uint8_t>((acc + n / 2) / n);
        }
    }
    return dst;
}

/** Random visible pixels; a margin, if any, keeps its fill. */
Plane
randomPlane(int w, int h, uint64_t seed, int border = 0)
{
    Rng rng(seed);
    Plane p(w, h, 0, border);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            p.at(x, y) = static_cast<uint8_t>(rng.uniformInt(256));
    return p;
}

void
expectMatchesReference(const Plane &src, int dw, int dh)
{
    EXPECT_EQ(scalePlane(src, dw, dh), referenceBoxDownscale(src, dw, dh))
        << src.width() << "x" << src.height() << " -> " << dw << "x" << dh;
}

TEST(Scaler, DownscaleMatchesPerPixelBoxOnTheLadder)
{
    // The benchmark ladder's downscales: 192x108 to 128x72 and 96x54,
    // and their chroma planes.
    const Plane luma = randomPlane(192, 108, 1);
    const Plane chroma = randomPlane(96, 54, 2);
    expectMatchesReference(luma, 128, 72);
    expectMatchesReference(luma, 96, 54);
    expectMatchesReference(chroma, 64, 36);
    expectMatchesReference(chroma, 48, 27);
}

TEST(Scaler, DownscaleMatchesPerPixelBoxAtOddRatios)
{
    const Plane src = randomPlane(37, 23, 3);
    expectMatchesReference(src, 5, 7);
    expectMatchesReference(src, 36, 22);
    expectMatchesReference(src, 37, 1);
    expectMatchesReference(src, 1, 23);
}

TEST(Scaler, DownscaleToOnePixelAveragesThePlane)
{
    for (const auto &[w, h] : {std::pair{2, 1}, std::pair{37, 23},
                               std::pair{192, 108}}) {
        const Plane src = randomPlane(w, h, 4);
        expectMatchesReference(src, 1, 1);
        uint32_t sum = 0;
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                sum += src.at(x, y);
        const auto n = static_cast<uint32_t>(w * h);
        EXPECT_EQ(scalePlane(src, 1, 1).at(0, 0), (sum + n / 2) / n);
    }
}

TEST(Scaler, DownscaleReadsABorderedSourceByRow)
{
    // Rows sit at the plane's stride, and the margin is never read: it
    // holds zeros here, not copies of the edge.
    const Plane src = randomPlane(192, 108, 5, 48);
    expectMatchesReference(src, 128, 72);
    expectMatchesReference(src, 96, 54);
}

TEST(ScalerDeathTest, RejectsOddFrameTarget)
{
    Frame f(32, 32);
    EXPECT_DEATH(scaleFrame(f, 15, 16), "even");
}

TEST(Ladder, StandardLadderIs16x9)
{
    for (const auto &r : standardLadder()) {
        // All rungs are even-dimensioned (4:2:0-safe).
        EXPECT_EQ(r.width % 2, 0);
        EXPECT_EQ(r.height % 2, 0);
    }
    EXPECT_EQ(standardLadder().front().height, 144);
    EXPECT_EQ(standardLadder().back().height, 4320);
}

TEST(Ladder, OutputsForInputMatchPaperExample)
{
    // "for 1080p inputs: 1080p, 720p, 480p, 360p, 240p, and 144p".
    auto outs = outputsForInput({1920, 1080});
    ASSERT_EQ(outs.size(), 6u);
    EXPECT_EQ(outs[0].height, 1080);
    EXPECT_EQ(outs[5].height, 144);
}

TEST(Ladder, TinyInputStillGetsOneOutput)
{
    auto outs = outputsForInput({100, 100});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].height, 144);
}

TEST(Ladder, ResolutionNames)
{
    EXPECT_STREQ(resolutionName({3840, 2160}), "2160p");
    EXPECT_STREQ(resolutionName({256, 144}), "144p");
    EXPECT_STREQ(resolutionName({640, 362}), "custom");
}

} // namespace
} // namespace wsva::video
