#include "platform/pipeline.h"

#include <gtest/gtest.h>

#include "video/codec/decoder.h"
#include "video/metrics.h"
#include "video/synth.h"

namespace wsva::platform {
namespace {

using wsva::video::generateVideo;
using wsva::video::SynthSpec;

std::vector<Frame>
sourceClip(int frames = 24)
{
    SynthSpec spec;
    spec.width = 128;
    spec.height = 72;
    spec.frame_count = frames;
    spec.detail = 2;
    spec.objects = 2;
    spec.motion = 2.0;
    spec.seed = 5;
    return generateVideo(spec);
}

PipelineConfig
fastConfig()
{
    PipelineConfig cfg;
    cfg.encoder.rc_mode = wsva::video::codec::RcMode::ConstQp;
    cfg.encoder.base_qp = 34;
    cfg.encoder.fps = 30.0;
    cfg.chunk_frames = 8;
    return cfg;
}

TEST(Chunking, SplitsEvenly)
{
    auto chunks = chunkFrames(sourceClip(24), 8);
    ASSERT_EQ(chunks.size(), 3u);
    for (const auto &c : chunks)
        EXPECT_EQ(c.size(), 8u);
}

TEST(Chunking, LastChunkMayBeShort)
{
    auto chunks = chunkFrames(sourceClip(10), 8);
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_EQ(chunks[0].size(), 8u);
    EXPECT_EQ(chunks[1].size(), 2u);
}

TEST(Pipeline, SotProducesOneDecodableVariant)
{
    auto clip = sourceClip();
    auto result =
        transcodeSot(clip, {128, 72}, CodecType::VP9, fastConfig());
    ASSERT_TRUE(result.integrity_ok) << result.integrity_error;
    ASSERT_EQ(result.variants.size(), 1u);
    auto frames = assembleVariant(result.variants[0], clip.size());
    ASSERT_EQ(frames.size(), clip.size());
    EXPECT_GT(wsva::video::sequencePsnr(clip, frames), 28.0);
}

TEST(Pipeline, MotProducesLadder)
{
    auto clip = sourceClip(16);
    // 128x72 input is below 144p, so build an explicit mini-ladder.
    std::vector<Resolution> outputs = {{128, 72}, {64, 36}};
    auto result =
        transcodeMot(clip, outputs, CodecType::H264, fastConfig());
    ASSERT_TRUE(result.integrity_ok) << result.integrity_error;
    ASSERT_EQ(result.variants.size(), 2u);
    EXPECT_EQ(result.variants[1].resolution.width, 64);
    // Lower rung costs fewer bits.
    EXPECT_LT(result.variants[1].totalBytes(),
              result.variants[0].totalBytes());
}

TEST(Pipeline, ChunksAreIndependentlyDecodable)
{
    auto clip = sourceClip(24);
    auto result =
        transcodeSot(clip, {128, 72}, CodecType::VP9, fastConfig());
    ASSERT_TRUE(result.integrity_ok);
    const auto &variant = result.variants[0];
    ASSERT_EQ(variant.chunks.size(), 3u);
    // Decode only the middle chunk: must succeed on its own (closed
    // GOPs are the unit of parallelism).
    auto decoded =
        wsva::video::codec::decodeChunk(variant.chunks[1].bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->frames.size(), 8u);
}

TEST(Pipeline, IntegrityCatchesCorruptChunk)
{
    auto clip = sourceClip(16);
    auto result =
        transcodeSot(clip, {128, 72}, CodecType::VP9, fastConfig());
    ASSERT_TRUE(result.integrity_ok);
    auto variant = result.variants[0];
    variant.chunks[1].bytes.resize(4); // Corrupt the container.
    std::string error;
    auto frames = assembleVariant(variant, clip.size(), &error);
    EXPECT_TRUE(frames.empty());
    EXPECT_NE(error.find("chunk 1"), std::string::npos);
}

TEST(Pipeline, IntegrityCatchesLengthMismatch)
{
    auto clip = sourceClip(16);
    auto result =
        transcodeSot(clip, {128, 72}, CodecType::VP9, fastConfig());
    auto variant = result.variants[0];
    variant.chunks.pop_back(); // Drop a chunk: length check fires.
    std::string error;
    auto frames = assembleVariant(variant, clip.size(), &error);
    EXPECT_TRUE(frames.empty());
    EXPECT_NE(error.find("length mismatch"), std::string::npos);
}

/**
 * The parallel fan-out must be invisible in the output: encoding
 * with a 4-worker pool yields byte-identical chunk payloads to the
 * fully serial path, for both codec profiles (closed-GOP chunks +
 * deterministic assembly order).
 */
class ParallelDeterminism : public testing::TestWithParam<CodecType>
{
};

TEST_P(ParallelDeterminism, FourThreadsMatchSerialByteExact)
{
    auto clip = sourceClip(20);
    PipelineConfig cfg = fastConfig();
    cfg.chunk_frames = 5; // 4 chunks x 2 rungs = 8 jobs.
    cfg.encoder.rc_mode = wsva::video::codec::RcMode::TwoPassOffline;
    cfg.encoder.target_bitrate_bps = 300e3;
    const std::vector<Resolution> outputs = {{128, 72}, {64, 36}};

    cfg.num_threads = 1;
    auto serial = transcodeMot(clip, outputs, GetParam(), cfg);
    cfg.num_threads = 4;
    auto parallel = transcodeMot(clip, outputs, GetParam(), cfg);

    ASSERT_TRUE(serial.integrity_ok) << serial.integrity_error;
    ASSERT_TRUE(parallel.integrity_ok) << parallel.integrity_error;
    ASSERT_EQ(serial.variants.size(), parallel.variants.size());
    for (size_t v = 0; v < serial.variants.size(); ++v) {
        const auto &sv = serial.variants[v];
        const auto &pv = parallel.variants[v];
        ASSERT_EQ(sv.chunks.size(), pv.chunks.size());
        for (size_t c = 0; c < sv.chunks.size(); ++c) {
            EXPECT_EQ(sv.chunks[c].bytes, pv.chunks[c].bytes)
                << "variant " << v << " chunk " << c;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, ParallelDeterminism,
    testing::Values(CodecType::H264, CodecType::VP9),
    [](const testing::TestParamInfo<CodecType> &info) {
        return std::string(
            wsva::video::codec::codecName(info.param));
    });

TEST(Pipeline, DefaultThreadCountMatchesSerialByteExact)
{
    // num_threads = 0 (hardware concurrency) is the production
    // default; it must also be bit-exact against the serial path.
    auto clip = sourceClip(16);
    PipelineConfig cfg = fastConfig();
    cfg.num_threads = 1;
    auto serial = transcodeSot(clip, {128, 72}, CodecType::VP9, cfg);
    cfg.num_threads = 0;
    auto parallel = transcodeSot(clip, {128, 72}, CodecType::VP9, cfg);
    ASSERT_EQ(serial.variants[0].chunks.size(),
              parallel.variants[0].chunks.size());
    for (size_t c = 0; c < serial.variants[0].chunks.size(); ++c) {
        EXPECT_EQ(serial.variants[0].chunks[c].bytes,
                  parallel.variants[0].chunks[c].bytes);
    }
}

TEST(Pipeline, RateControlledMotSharesStats)
{
    auto clip = sourceClip(16);
    PipelineConfig cfg = fastConfig();
    cfg.encoder.rc_mode = wsva::video::codec::RcMode::TwoPassOffline;
    cfg.encoder.target_bitrate_bps = 250e3;
    auto result = transcodeMot(clip, {{128, 72}, {64, 36}},
                               CodecType::VP9, cfg);
    ASSERT_TRUE(result.integrity_ok) << result.integrity_error;
    EXPECT_GT(result.variants[0].bitrateBps(), 0.0);
}

} // namespace
} // namespace wsva::platform
