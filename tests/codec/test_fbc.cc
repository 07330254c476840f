#include "video/codec/fbc.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "common/rng.h"
#include "video/synth.h"

namespace wsva::video::codec {
namespace {

TEST(Fbc, LosslessOnFlatPlane)
{
    Plane p(128, 64, 200);
    const auto compressed = fbcCompress(p);
    EXPECT_EQ(fbcDecompress(compressed), p);
}

TEST(Fbc, LosslessOnRandomNoise)
{
    wsva::Rng rng(12);
    Plane p(96, 48);
    for (auto &px : p.data())
        px = static_cast<uint8_t>(rng.uniformInt(256));
    EXPECT_EQ(fbcDecompress(fbcCompress(p)), p);
}

TEST(Fbc, LosslessOnNaturalContent)
{
    SynthSpec spec;
    spec.width = 128;
    spec.height = 96;
    spec.frame_count = 1;
    spec.detail = 3;
    spec.objects = 3;
    spec.seed = 5;
    const Frame f = generateFrameAt(spec, 0);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(fbcDecompress(fbcCompress(f.plane(i))), f.plane(i));
}

TEST(Fbc, LosslessOnOddDimensions)
{
    // Plane sizes that are not multiples of the 64x16 tile.
    wsva::Rng rng(13);
    Plane p(70, 23);
    for (auto &px : p.data())
        px = static_cast<uint8_t>(rng.uniformInt(256));
    EXPECT_EQ(fbcDecompress(fbcCompress(p)), p);
}

TEST(Fbc, SmoothContentCompressesWell)
{
    // The paper: reference compression halves read bandwidth. Smooth
    // reconstructed video should compress at >= 2x.
    SynthSpec spec;
    spec.width = 256;
    spec.height = 144;
    spec.frame_count = 1;
    spec.detail = 2;
    spec.objects = 2;
    spec.seed = 21;
    const Frame f = generateFrameAt(spec, 0);
    EXPECT_GT(fbcRatio(f.y()), 2.0);
}

TEST(Fbc, RandomNoiseDoesNotCompress)
{
    wsva::Rng rng(14);
    Plane p(128, 64);
    for (auto &px : p.data())
        px = static_cast<uint8_t>(rng.uniformInt(256));
    EXPECT_LT(fbcRatio(p), 1.05);
}

TEST(Fbc, FrameRatioAggregatesPlanes)
{
    SynthSpec spec;
    spec.width = 128;
    spec.height = 96;
    spec.frame_count = 1;
    spec.detail = 1;
    spec.seed = 22;
    const Frame f = generateFrameAt(spec, 0);
    const double ratio = fbcFrameRatio(f);
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 64.0);
}

TEST(Fbc, HardwareRatioCappedAtTwo)
{
    // Highly compressible content: entropy ratio far above 2, but
    // the compartmented hardware layout realizes exactly 2x.
    Frame flat(128, 64, 180);
    EXPECT_GT(fbcFrameRatio(flat), 3.0);
    EXPECT_NEAR(fbcHardwareRatio(flat), 2.0, 1e-9);
}

TEST(Fbc, HardwareRatioFollowsEntropyWhenPoor)
{
    wsva::Rng rng(31);
    Frame noise(128, 64);
    for (int p = 0; p < 3; ++p)
        for (auto &px : noise.plane(p).data())
            px = static_cast<uint8_t>(rng.uniformInt(256));
    const double hw = fbcHardwareRatio(noise);
    EXPECT_LT(hw, 1.1); // Incompressible blocks are stored raw.
    EXPECT_GE(hw, 0.99);
}

TEST(Fbc, TruncatedPayloadIsRejectedAtEveryLength)
{
    wsva::Rng rng(15);
    Plane p(70, 23);
    for (auto &px : p.data())
        px = static_cast<uint8_t>(rng.uniformInt(256));
    const auto compressed = fbcCompress(p);
    ASSERT_EQ(fbcDecompress(compressed), p);
    for (size_t len = 0; len < compressed.payload.size(); ++len) {
        FbcPlane truncated = compressed;
        truncated.payload.resize(len);
        EXPECT_EQ(fbcDecompress(truncated), std::nullopt) << "length " << len;
    }
}

TEST(Fbc, CorruptSizeIsRejected)
{
    const auto compressed = fbcCompress(Plane(64, 16, 100));
    for (const auto &size : {std::array<int, 2>{0, 16},
                             std::array<int, 2>{64, -1},
                             std::array<int, 2>{1 << 20, 1 << 20}}) {
        FbcPlane corrupt = compressed;
        corrupt.width = size[0];
        corrupt.height = size[1];
        EXPECT_EQ(fbcDecompress(corrupt), std::nullopt)
            << size[0] << "x" << size[1];
    }
}

} // namespace
} // namespace wsva::video::codec
