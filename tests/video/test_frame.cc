#include "video/frame.h"

#include <gtest/gtest.h>

namespace wsva::video {
namespace {

TEST(Plane, ConstructsWithFill)
{
    Plane p(8, 4, 77);
    EXPECT_EQ(p.width(), 8);
    EXPECT_EQ(p.height(), 4);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 8; ++x)
            ASSERT_EQ(p.at(x, y), 77);
}

TEST(Plane, PixelAccessIsRowMajor)
{
    Plane p(4, 2);
    p.at(3, 1) = 9;
    EXPECT_EQ(p.data()[1 * 4 + 3], 9);
}

TEST(Plane, ClampedAtHandlesEdges)
{
    Plane p(4, 4);
    p.at(0, 0) = 1;
    p.at(3, 3) = 2;
    EXPECT_EQ(p.clampedAt(-5, -5), 1);
    EXPECT_EQ(p.clampedAt(10, 10), 2);
}

TEST(Plane, RowPointerMatchesAt)
{
    Plane p(6, 3);
    p.at(2, 1) = 42;
    EXPECT_EQ(p.row(1)[2], 42);
}

TEST(Plane, ExtendBorderMatchesClampedAtAcrossTheMargin)
{
    constexpr int kBorder = 5;
    Plane p(7, 4, 0, kBorder);
    const auto expectMarginClamped = [&p] {
        for (int y = -kBorder; y < p.height() + kBorder; ++y)
            for (int x = -kBorder; x < p.width() + kBorder; ++x)
                ASSERT_EQ(p.row(y)[x], p.clampedAt(x, y))
                    << "at " << x << "," << y;
    };
    for (int y = 0; y < p.height(); ++y)
        for (int x = 0; x < p.width(); ++x)
            p.at(x, y) = static_cast<uint8_t>(17 * x + 31 * y);
    p.extendBorder();
    expectMarginClamped();
    // New writes to the edges and corners show after the next extend.
    p.at(0, 0) = 250;
    p.at(6, 3) = 251;
    p.at(3, 0) = 252;
    p.at(0, 2) = 253;
    p.extendBorder();
    expectMarginClamped();
    EXPECT_EQ(p.row(-kBorder)[-kBorder], 250);
    EXPECT_EQ(p.row(3 + kBorder)[6 + kBorder], 251);
}

TEST(Plane, EqualityIgnoresTheMargin)
{
    Plane plain(6, 4, 9);
    Plane bordered(6, 4, 9, 3);
    EXPECT_EQ(plain, bordered);
    bordered.row(-1)[-1] = 200;
    bordered.row(2)[6] = 201;
    EXPECT_EQ(plain, bordered);
    bordered.at(5, 3) = 202;
    EXPECT_NE(plain, bordered);
    EXPECT_NE(Plane(6, 4, 9), Plane(4, 6, 9));
}

TEST(Plane, BorderedStorageKeepsVisibleRowsApart)
{
    Plane p(4, 3, 0, 2);
    EXPECT_EQ(p.stride(), 8);
    EXPECT_EQ(p.row(1) - p.row(0), 8);
    p.at(3, 0) = 1;
    p.at(0, 1) = 2;
    EXPECT_EQ(p.at(3, 0), 1);
    EXPECT_EQ(p.row(1)[0], 2);
}

TEST(PlaneDeathTest, RasterAccessNeedsAPlainPlane)
{
    const Plane p(4, 4, 0, 2);
    EXPECT_DEATH((void)p.data(), "margin");
    EXPECT_DEATH((void)p.pixelCount(), "margin");
}

TEST(Frame, ChromaIsHalfResolution)
{
    Frame f(32, 16);
    EXPECT_EQ(f.u().width(), 16);
    EXPECT_EQ(f.u().height(), 8);
    EXPECT_EQ(f.v().width(), 16);
    EXPECT_EQ(f.v().height(), 8);
    EXPECT_TRUE(f.valid());
}

TEST(Frame, ChromaStartsNeutral)
{
    Frame f(8, 8);
    EXPECT_EQ(f.u().at(0, 0), 128);
    EXPECT_EQ(f.v().at(3, 3), 128);
}

TEST(Frame, PlaneIndexing)
{
    Frame f(8, 8);
    f.y().at(1, 1) = 10;
    f.u().at(1, 1) = 20;
    f.v().at(1, 1) = 30;
    EXPECT_EQ(f.plane(0).at(1, 1), 10);
    EXPECT_EQ(f.plane(1).at(1, 1), 20);
    EXPECT_EQ(f.plane(2).at(1, 1), 30);
}

TEST(Frame, PixelCountIsLumaPixels)
{
    Frame f(32, 18);
    EXPECT_EQ(f.pixelCount(), 32u * 18u);
}

TEST(Frame, ChromaMarginIsHalfTheLumaMargin)
{
    Frame f(32, 16, 0, 8);
    EXPECT_EQ(f.y().border(), 8);
    EXPECT_EQ(f.u().border(), 4);
    EXPECT_EQ(f.v().border(), 4);
    EXPECT_EQ(f, Frame(32, 16));
}

TEST(Frame, EqualityComparesPixels)
{
    Frame a(8, 8, 10);
    Frame b(8, 8, 10);
    EXPECT_EQ(a, b);
    b.y().at(0, 0) = 11;
    EXPECT_NE(a, b);
}

TEST(FrameDeathTest, RejectsOddDimensions)
{
    EXPECT_DEATH(Frame(7, 8), "even");
}

TEST(RawFrameBytes, Is15BytesPerPixel)
{
    EXPECT_EQ(rawFrameBytes(3840, 2160),
              3840ull * 2160ull * 3ull / 2ull);
}

} // namespace
} // namespace wsva::video
