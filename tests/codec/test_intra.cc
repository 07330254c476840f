#include "video/codec/intra.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

namespace wsva::video::codec {
namespace {

Plane
gradientPlane()
{
    Plane p(32, 32);
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            p.at(x, y) = static_cast<uint8_t>(4 * x + 2 * y);
    return p;
}

TEST(Intra, DcWithNoNeighborsIsMidGrey)
{
    Plane p(32, 32, 200);
    uint8_t out[64];
    intraPredict(p, 0, 0, 8, IntraMode::Dc, out);
    for (auto v : out)
        ASSERT_EQ(v, 128);
}

TEST(Intra, DcAveragesTopAndLeft)
{
    Plane p(32, 32, 0);
    // Top row = 100, left column = 200 around block at (8, 8).
    for (int i = 0; i < 8; ++i) {
        p.at(8 + i, 7) = 100;
        p.at(7, 8 + i) = 200;
    }
    uint8_t out[64];
    intraPredict(p, 8, 8, 8, IntraMode::Dc, out);
    for (auto v : out)
        ASSERT_EQ(v, 150);
}

TEST(Intra, DcTopOnlyOnFirstColumn)
{
    Plane p(32, 32, 0);
    for (int i = 0; i < 8; ++i)
        p.at(i, 7) = 60;
    uint8_t out[64];
    intraPredict(p, 0, 8, 8, IntraMode::Dc, out);
    for (auto v : out)
        ASSERT_EQ(v, 60);
}

TEST(Intra, VerticalCopiesTopRow)
{
    Plane p = gradientPlane();
    uint8_t out[64];
    intraPredict(p, 8, 8, 8, IntraMode::Vertical, out);
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 8; ++c)
            ASSERT_EQ(out[r * 8 + c], p.at(8 + c, 7));
}

TEST(Intra, HorizontalCopiesLeftColumn)
{
    Plane p = gradientPlane();
    uint8_t out[64];
    intraPredict(p, 8, 8, 8, IntraMode::Horizontal, out);
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 8; ++c)
            ASSERT_EQ(out[r * 8 + c], p.at(7, 8 + r));
}

TEST(Intra, TrueMotionExtendsGradient)
{
    Plane p = gradientPlane();
    uint8_t out[16 * 16];
    intraPredict(p, 16, 16, 16, IntraMode::TrueMotion, out);
    // For a perfectly linear ramp, TM prediction is exact.
    for (int r = 0; r < 16; ++r)
        for (int c = 0; c < 16; ++c)
            ASSERT_EQ(out[r * 16 + c], p.at(16 + c, 16 + r));
}

TEST(Intra, TrueMotionClampsToByteRange)
{
    Plane p(32, 32, 0);
    for (int i = 0; i < 32; ++i) {
        p.at(i, 7) = 255; // Bright top.
        p.at(7, i) = 255; // Bright left.
    }
    p.at(7, 7) = 0; // Dark corner: left + top - corner = 510.
    uint8_t out[64];
    intraPredict(p, 8, 8, 8, IntraMode::TrueMotion, out);
    for (auto v : out)
        ASSERT_EQ(v, 255);
}

TEST(Intra, WorksAt16x16)
{
    Plane p = gradientPlane();
    uint8_t out[16 * 16];
    intraPredict(p, 16, 0, 16, IntraMode::Horizontal, out);
    for (int r = 0; r < 16; ++r)
        ASSERT_EQ(out[r * 16 + 5], p.at(15, r));
}

TEST(Intra, ClampsNeighborsThatOverhangThePlane)
{
    // Blocks that run past the right or bottom edge, or start beyond
    // it, read their neighbors clamped to the plane, margin or not.
    const Plane plain = gradientPlane();
    Plane bordered(32, 32, 0, 8);
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            bordered.at(x, y) = plain.at(x, y);
    for (const auto &pos : {std::array<int, 2>{28, 8},
                            std::array<int, 2>{8, 28},
                            std::array<int, 2>{28, 28},
                            std::array<int, 2>{40, 36}}) {
        const int x = pos[0];
        const int y = pos[1];
        uint8_t tm[64];
        intraPredict(bordered, x, y, 8, IntraMode::TrueMotion, tm);
        for (int r = 0; r < 8; ++r) {
            for (int c = 0; c < 8; ++c) {
                const int want = std::clamp(
                    plain.clampedAt(x - 1, y + r) +
                        plain.clampedAt(x + c, y - 1) -
                        plain.clampedAt(x - 1, y - 1),
                    0, 255);
                ASSERT_EQ(tm[r * 8 + c], want)
                    << "block at " << x << "," << y;
            }
        }
        uint8_t from_plain[64];
        intraPredict(plain, x, y, 8, IntraMode::TrueMotion, from_plain);
        EXPECT_TRUE(std::equal(tm, tm + 64, from_plain));
    }
}

} // namespace
} // namespace wsva::video::codec
