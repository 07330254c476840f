#include "video/codec/mc.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace wsva::video::codec {
namespace {

Plane
randomPlane(int w, int h, uint64_t seed)
{
    wsva::Rng rng(seed);
    Plane p(w, h);
    for (auto &px : p.data())
        px = static_cast<uint8_t>(rng.uniformInt(256));
    return p;
}

TEST(Mc, IntegerMvIsPlainCopy)
{
    Plane p = randomPlane(64, 64, 1);
    uint8_t out[16 * 16];
    motionCompensate(p, 16, 16, 16, Mv{4, -6}, out); // +2, -3 int pel.
    for (int r = 0; r < 16; ++r)
        for (int c = 0; c < 16; ++c)
            ASSERT_EQ(out[r * 16 + c], p.at(16 + c + 2, 16 + r - 3));
}

TEST(Mc, HalfPelHorizontalAverages)
{
    Plane p = randomPlane(64, 64, 2);
    uint8_t out[8 * 8];
    motionCompensate(p, 16, 16, 8, Mv{1, 0}, out);
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 8; ++c) {
            const int expect =
                (p.at(16 + c, 16 + r) + p.at(17 + c, 16 + r) + 1) >> 1;
            ASSERT_EQ(out[r * 8 + c], expect);
        }
    }
}

TEST(Mc, HalfPelVerticalAverages)
{
    Plane p = randomPlane(64, 64, 3);
    uint8_t out[8 * 8];
    motionCompensate(p, 16, 16, 8, Mv{0, 1}, out);
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 8; ++c) {
            const int expect =
                (p.at(16 + c, 16 + r) + p.at(16 + c, 17 + r) + 1) >> 1;
            ASSERT_EQ(out[r * 8 + c], expect);
        }
    }
}

TEST(Mc, HalfPelDiagonalAveragesFour)
{
    Plane p = randomPlane(64, 64, 4);
    uint8_t out[8 * 8];
    motionCompensate(p, 8, 8, 8, Mv{1, 1}, out);
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 8; ++c) {
            const int expect =
                (p.at(8 + c, 8 + r) + p.at(9 + c, 8 + r) +
                 p.at(8 + c, 9 + r) + p.at(9 + c, 9 + r) + 2) >> 2;
            ASSERT_EQ(out[r * 8 + c], expect);
        }
    }
}

TEST(Mc, NegativeHalfPelComponents)
{
    Plane p = randomPlane(64, 64, 5);
    uint8_t out[8 * 8];
    // -3 half-pel = -2 int with a +0.5 fraction under our convention
    // (shift divides toward negative infinity via >>).
    motionCompensate(p, 16, 16, 8, Mv{-3, 0}, out);
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 8; ++c) {
            const int base_x = 16 + c - 2;
            const int expect =
                (p.at(base_x, 16 + r) + p.at(base_x + 1, 16 + r) + 1) >> 1;
            ASSERT_EQ(out[r * 8 + c], expect);
        }
    }
}

TEST(Mc, OutOfBoundsClampsToEdge)
{
    Plane p(32, 32, 0);
    for (int y = 0; y < 32; ++y)
        p.at(0, y) = 200;
    uint8_t out[8 * 8];
    motionCompensate(p, 0, 0, 8, Mv{-32, 0}, out);
    for (int r = 0; r < 8; ++r)
        ASSERT_EQ(out[r * 8 + 0], 200);
}

TEST(Mc, ExtractBlockInterior)
{
    Plane p = randomPlane(32, 32, 6);
    uint8_t out[8 * 8];
    extractBlock(p, 4, 4, 8, out);
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 8; ++c)
            ASSERT_EQ(out[r * 8 + c], p.at(4 + c, 4 + r));
}

TEST(Mc, ExtractBlockEdgeReplicates)
{
    Plane p = randomPlane(16, 16, 7);
    uint8_t out[8 * 8];
    extractBlock(p, 12, 12, 8, out);
    EXPECT_EQ(out[7 * 8 + 7], p.at(15, 15));
}

TEST(Mc, SadZeroForIdenticalBlocks)
{
    Plane p = randomPlane(32, 32, 8);
    EXPECT_EQ(sadAt(p, p, 8, 8, 16, 0, 0), 0u);
}

TEST(Mc, SadMatchesManualComputation)
{
    Plane a(8, 8, 10);
    Plane b(8, 8, 13);
    uint8_t ba[64];
    uint8_t bb[64];
    extractBlock(a, 0, 0, 8, ba);
    extractBlock(b, 0, 0, 8, bb);
    EXPECT_EQ(blockSad(ba, bb, 8), 64u * 3u);
}

TEST(Mc, SadAtAgreesWithExtractedBlocks)
{
    Plane src = randomPlane(64, 64, 9);
    Plane ref = randomPlane(64, 64, 10);
    uint8_t bs[256];
    uint8_t br[256];
    extractBlock(src, 16, 16, 16, bs);
    extractBlock(ref, 19, 14, 16, br);
    EXPECT_EQ(sadAt(src, ref, 16, 16, 16, 3, -2), blockSad(bs, br, 16));
}

} // namespace
} // namespace wsva::video::codec
