#include "cluster/work.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace wsva::cluster {
namespace {

using wsva::video::codec::CodecType;

TEST(Work, MotStepHasFullLadder)
{
    const auto step = makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    EXPECT_TRUE(step.isMot());
    EXPECT_EQ(step.outputs.size(), 6u); // 1080p..144p.
    EXPECT_EQ(step.outputs.front().height, 1080);
}

TEST(Work, SotStepSingleOutput)
{
    const auto step = makeSotStep(1, 10, 0, {1920, 1080}, {640, 360},
                                  CodecType::H264);
    EXPECT_FALSE(step.isMot());
    EXPECT_EQ(step.outputs.size(), 1u);
}

TEST(OutputLadder, MotLadderMatchesOutputsForInput)
{
    // makeMotStep reads its ladder from the intern table; it must be
    // the rung list outputsForInput builds, for any input height.
    for (int height : {0, 100, 144, 200, 360, 480, 719, 720, 1080, 1081,
                       1440, 2160, 3000, 4320, 9000}) {
        const wsva::video::Resolution input{height * 16 / 9, height};
        const auto expected = wsva::video::outputsForInput(input);
        const auto step = makeMotStep(1, 1, 0, input, CodecType::VP9);
        ASSERT_EQ(step.outputs.size(), expected.size()) << height;
        for (size_t i = 0; i < expected.size(); ++i)
            EXPECT_EQ(step.outputs.begin()[i], expected[i])
                << height << " " << i;
    }
}

TEST(OutputLadder, EqualRungsShareOneId)
{
    const auto sot = makeSotStep(1, 1, 0, {1920, 1080}, {256, 144},
                                 CodecType::H264);
    const auto mot = makeMotStep(2, 1, 0, {256, 144}, CodecType::H264);
    EXPECT_EQ(sot.outputs, mot.outputs); // Both are {144p}.
    const auto odd = OutputLadder::single({1000, 562});
    EXPECT_EQ(odd, OutputLadder::single({1000, 562}));
    EXPECT_NE(odd, OutputLadder::single({1000, 563}));
    ASSERT_EQ(odd.size(), 1u);
    EXPECT_EQ(odd.front().width, 1000);
    EXPECT_EQ(OutputLadder().size(), 0u);
    EXPECT_EQ(TranscodeStep().outputs, OutputLadder());
}

TEST(OutputLadder, ConcurrentInterningIsConsistent)
{
    // Arbitrary SOT rungs intern under the table's lock while other
    // threads read entries lock-free; every thread must get the same
    // ladder for the same rung and read back what it interned.
    constexpr int kThreads = 4;
    constexpr int kRungs = 300;
    std::vector<std::vector<OutputLadder>> ladders(
        kThreads, std::vector<OutputLadder>(kRungs));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &ladders] {
            for (int i = 0; i < kRungs; ++i) {
                // Each thread starts at a different rung.
                const int k = (i + t * 77) % kRungs;
                const OutputLadder ladder =
                    OutputLadder::single({2000 + k, 3000 + k});
                ASSERT_EQ(ladder.size(), 1u);
                ASSERT_EQ(ladder.front().width, 2000 + k);
                ASSERT_EQ(ladder.front().height, 3000 + k);
                ladders[static_cast<size_t>(t)][static_cast<size_t>(k)] =
                    ladder;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int k = 0; k < kRungs; ++k) {
        const OutputLadder ladder = OutputLadder::single({2000 + k, 3000 + k});
        for (int t = 0; t < kThreads; ++t)
            EXPECT_EQ(
                ladders[static_cast<size_t>(t)][static_cast<size_t>(k)],
                ladder)
                << "thread " << t << " rung " << k;
    }
}

TEST(Work, MotOutputPixelsNearTwiceTopRung)
{
    // Footnote 2: the sub-1080p rungs sum to ~0.85x of 1080p, so the
    // whole ladder is ~1.85x the top rung.
    const auto step = makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    const double top =
        1920.0 * 1080.0 * step.frames;
    EXPECT_NEAR(step.outputPixels() / top, 1.85, 0.15);
}

TEST(Work, DurationFollowsFpsAndFrames)
{
    auto step = makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    step.frames = 150;
    step.fps = 30.0;
    EXPECT_DOUBLE_EQ(step.durationSeconds(), 5.0);
}

TEST(Work, ResourceNeedScalesWithResolution)
{
    ResourceMappingPolicy policy;
    const auto small =
        makeMotStep(1, 10, 0, {640, 360}, CodecType::VP9);
    const auto large =
        makeMotStep(2, 10, 0, {3840, 2160}, CodecType::VP9);
    const auto need_s = stepResourceNeed(small, policy);
    const auto need_l = stepResourceNeed(large, policy);
    EXPECT_GT(need_l.get(kResEncodeMillicores),
              5.0 * need_s.get(kResEncodeMillicores));
    EXPECT_GT(need_l.get(kResDecodeMillicores),
              5.0 * need_s.get(kResDecodeMillicores));
}

TEST(Work, MotNeedFitsOneVcu)
{
    // "Few videos require an entire VCU for their MOT" — even a
    // 2160p two-pass MOT must fit in {3000 dec, 10000 enc}.
    ResourceMappingPolicy policy;
    const auto step =
        makeMotStep(1, 10, 0, {3840, 2160}, CodecType::VP9);
    const auto need = stepResourceNeed(step, policy);
    EXPECT_LE(need.get(kResDecodeMillicores), 3000);
    EXPECT_LE(need.get(kResEncodeMillicores), 10000);
}

TEST(Work, SoftwareDecodeOffloadShiftsResources)
{
    ResourceMappingPolicy hw;
    ResourceMappingPolicy offload;
    offload.software_decode_fraction = 0.5;
    const auto step =
        makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    const auto need_hw = stepResourceNeed(step, hw);
    const auto need_off = stepResourceNeed(step, offload);
    EXPECT_LT(need_off.get(kResDecodeMillicores),
              need_hw.get(kResDecodeMillicores));
    EXPECT_GT(need_off.get(kResHostCpuMillicores),
              need_hw.get(kResHostCpuMillicores));
    EXPECT_GT(need_off.get(kResSwDecodeMillicores), 0);
}

TEST(Work, TwoPassNeedsMoreEncode)
{
    ResourceMappingPolicy policy;
    auto step = makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    step.two_pass = false;
    const double single =
        stepResourceNeed(step, policy).get(kResEncodeMillicores);
    step.two_pass = true;
    const double dual =
        stepResourceNeed(step, policy).get(kResEncodeMillicores);
    EXPECT_GT(dual, single);
}

TEST(Work, ServiceTimeShrinksWithSpeedup)
{
    ResourceMappingPolicy rt;
    rt.allocation_speedup = 1.0;
    ResourceMappingPolicy fast;
    fast.allocation_speedup = 4.0;
    auto step = makeMotStep(1, 10, 0, {1920, 1080}, CodecType::VP9);
    EXPECT_DOUBLE_EQ(stepServiceSeconds(step, rt), 5.0);
    EXPECT_DOUBLE_EQ(stepServiceSeconds(step, fast), 1.25);
}

TEST(Work, DramFootprintMatchesAppendixA)
{
    // ~700 MiB per 2160p MOT, ~500 MiB per 2160p SOT (plus the
    // two-pass margin our mapping adds when enabled).
    auto mot = makeMotStep(1, 10, 0, {3840, 2160}, CodecType::VP9);
    mot.two_pass = false;
    auto sot = makeSotStep(2, 10, 0, {3840, 2160}, {3840, 2160},
                           CodecType::VP9);
    sot.two_pass = false;
    EXPECT_NEAR(static_cast<double>(stepDramFootprint(mot)) / (1 << 20),
                700.0, 20.0);
    EXPECT_NEAR(static_cast<double>(stepDramFootprint(sot)) / (1 << 20),
                500.0, 20.0);
}

TEST(Work, TinyStepsHaveFootprintFloor)
{
    auto step = makeMotStep(1, 10, 0, {256, 144}, CodecType::VP9);
    EXPECT_GE(stepDramFootprint(step), 48ull << 20);
}

} // namespace
} // namespace wsva::cluster
