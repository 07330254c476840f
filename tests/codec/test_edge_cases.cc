/**
 * @file
 * Codec edge cases and robustness: extreme content, extreme
 * parameters, minimum sizes, and deterministic corruption fuzzing.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "video/codec/bitstream.h"
#include "video/codec/decoder.h"
#include "video/codec/encoder.h"
#include "video/codec/entropy.h"
#include "video/codec/mb_common.h"
#include "video/metrics.h"
#include "video/synth.h"

namespace wsva::video::codec {
namespace {

EncoderConfig
cfgFor(int w, int h, CodecType codec = CodecType::VP9)
{
    EncoderConfig cfg;
    cfg.codec = codec;
    cfg.width = w;
    cfg.height = h;
    cfg.base_qp = 32;
    cfg.gop_length = 8;
    return cfg;
}

TEST(EdgeCases, SingleFrameClip)
{
    Frame f(64, 48, 90);
    auto chunk = encodeSequence(cfgFor(64, 48), {f});
    auto decoded = decodeChunkOrDie(chunk.bytes);
    ASSERT_EQ(decoded.frames.size(), 1u);
    EXPECT_GT(framePsnr(f, decoded.frames[0]), 35.0);
}

TEST(EdgeCases, MinimumMacroblockSize)
{
    // One macroblock exactly.
    std::vector<Frame> clip(3, Frame(16, 16, 100));
    clip[1].y().at(8, 8) = 200;
    auto chunk = encodeSequence(cfgFor(16, 16), clip);
    auto decoded = decodeChunkOrDie(chunk.bytes);
    EXPECT_EQ(decoded.frames.size(), 3u);
}

TEST(EdgeCases, TinyOddDimensions)
{
    // 18x10: padded to 32x16 internally, cropped on output.
    std::vector<Frame> clip(2, Frame(18, 10, 70));
    auto chunk = encodeSequence(cfgFor(18, 10), clip);
    auto decoded = decodeChunkOrDie(chunk.bytes);
    ASSERT_EQ(decoded.frames.size(), 2u);
    EXPECT_EQ(decoded.frames[0].width(), 18);
    EXPECT_EQ(decoded.frames[0].height(), 10);
}

TEST(EdgeCases, AllBlackAndAllWhite)
{
    std::vector<Frame> clip;
    clip.emplace_back(48, 32, 0);
    clip.emplace_back(48, 32, 255);
    clip.emplace_back(48, 32, 0);
    auto chunk = encodeSequence(cfgFor(48, 32), clip);
    auto decoded = decodeChunkOrDie(chunk.bytes);
    ASSERT_EQ(decoded.frames.size(), 3u);
    // Flat frames should be near-perfect at moderate qp.
    EXPECT_GT(framePsnr(clip[0], decoded.frames[0]), 45.0);
    EXPECT_GT(framePsnr(clip[1], decoded.frames[1]), 45.0);
}

TEST(EdgeCases, ExtremeQps)
{
    SynthSpec spec;
    spec.width = 48;
    spec.height = 32;
    spec.frame_count = 4;
    spec.detail = 2;
    spec.seed = 9;
    auto clip = generateVideo(spec);
    for (int qp : {0, 63}) {
        EncoderConfig cfg = cfgFor(48, 32);
        cfg.base_qp = qp;
        auto chunk = encodeSequence(cfg, clip);
        auto decoded = decodeChunk(chunk.bytes);
        ASSERT_TRUE(decoded.has_value()) << "qp " << qp;
        EXPECT_EQ(decoded->frames.size(), clip.size());
    }
}

TEST(EdgeCases, NearLosslessAtQpZero)
{
    SynthSpec spec;
    spec.width = 48;
    spec.height = 32;
    spec.frame_count = 3;
    spec.detail = 2;
    spec.seed = 10;
    auto clip = generateVideo(spec);
    EncoderConfig cfg = cfgFor(48, 32);
    cfg.base_qp = 0;
    auto decoded = decodeChunkOrDie(encodeSequence(cfg, clip).bytes);
    EXPECT_GT(sequencePsnr(clip, decoded.frames), 46.0);
}

TEST(EdgeCases, HighMotionExceedsSearchRange)
{
    // Objects moving faster than the search window: encoder must
    // still produce a correct (if less efficient) stream.
    SynthSpec spec;
    spec.width = 96;
    spec.height = 64;
    spec.frame_count = 6;
    spec.detail = 2;
    spec.objects = 3;
    spec.motion = 30.0; // Far beyond +-16 integer search.
    spec.seed = 11;
    auto clip = generateVideo(spec);
    auto chunk = encodeSequence(cfgFor(96, 64), clip);
    auto decoded = decodeChunkOrDie(chunk.bytes);
    EXPECT_GT(sequencePsnr(clip, decoded.frames), 25.0);
}

TEST(EdgeCases, SceneCutMidGop)
{
    SynthSpec spec;
    spec.width = 64;
    spec.height = 48;
    spec.frame_count = 8;
    spec.detail = 2;
    spec.scene_cut_period = 4; // Cut inside the GOP.
    spec.seed = 12;
    auto clip = generateVideo(spec);
    auto chunk = encodeSequence(cfgFor(64, 48), clip);
    auto decoded = decodeChunkOrDie(chunk.bytes);
    EXPECT_GT(sequencePsnr(clip, decoded.frames), 28.0);
}

TEST(EdgeCases, GopLengthOne)
{
    // All-intra stream.
    SynthSpec spec;
    spec.width = 48;
    spec.height = 32;
    spec.frame_count = 4;
    spec.seed = 13;
    auto clip = generateVideo(spec);
    EncoderConfig cfg = cfgFor(48, 32);
    cfg.gop_length = 1;
    auto chunk = encodeSequence(cfg, clip);
    for (const auto &f : chunk.frames)
        EXPECT_EQ(f.type, FrameType::Key);
    EXPECT_EQ(decodeChunkOrDie(chunk.bytes).frames.size(), 4u);
}

TEST(EdgeCases, TruncationFuzzNeverCrashes)
{
    SynthSpec spec;
    spec.width = 48;
    spec.height = 32;
    spec.frame_count = 4;
    spec.seed = 14;
    auto clip = generateVideo(spec);
    auto chunk = encodeSequence(cfgFor(48, 32), clip);
    // Every truncation point must be rejected or decoded, not crash.
    for (size_t len = 0; len < chunk.bytes.size();
         len += std::max<size_t>(1, chunk.bytes.size() / 64)) {
        std::vector<uint8_t> cut(chunk.bytes.begin(),
                                 chunk.bytes.begin() +
                                     static_cast<long>(len));
        auto decoded = decodeChunk(cut);
        (void)decoded;
    }
    SUCCEED();
}

TEST(EdgeCases, BitFlipFuzzNeverCrashes)
{
    SynthSpec spec;
    spec.width = 48;
    spec.height = 32;
    spec.frame_count = 3;
    spec.seed = 15;
    auto clip = generateVideo(spec);
    auto chunk = encodeSequence(cfgFor(48, 32), clip);
    wsva::Rng rng(16);
    for (int trial = 0; trial < 48; ++trial) {
        auto bytes = chunk.bytes;
        // Flip a few random bits in the payload area.
        for (int f = 0; f < 4; ++f) {
            const auto pos = 15 + rng.uniformInt(
                static_cast<uint32_t>(bytes.size() - 15));
            bytes[pos] ^= static_cast<uint8_t>(1u << rng.uniformInt(8));
        }
        auto decoded = decodeChunk(bytes);
        (void)decoded; // Either result is fine; crashing is not.
    }
    SUCCEED();
}

/**
 * A hand-built stream: a keyframe of residual-free DC blocks (flat
 * 128), then inter frames whose macroblocks carry random vectors from
 * the whole int16 range, as a hostile stream may, and no residual.
 */
std::vector<uint8_t>
hostileVectorStream(CodecType codec, uint64_t seed)
{
    constexpr int kFrames = 4;
    SequenceHeader seq;
    seq.codec = codec;
    seq.width = 48;
    seq.height = 32;
    seq.frame_count = kFrames;
    StreamWriter sw(seq);
    EntropyModel model;
    wsva::Rng rng(seed);
    const CoeffBlock zero{};
    const auto randomMvd = [&rng] {
        return rng.uniformRange(-32768, 32767);
    };
    for (int f = 0; f < kFrames; ++f) {
        FrameHeader hdr;
        hdr.type = f == 0 ? FrameType::Key : FrameType::Inter;
        hdr.update_golden = f != 1;
        hdr.update_altref = f == 0;
        if (hdr.type == FrameType::Key)
            model.reset();
        std::unique_ptr<SyntaxWriter> w;
        if (codec == CodecType::VP9)
            w = std::make_unique<ArithSyntaxWriter>(model);
        else
            w = std::make_unique<GolombSyntaxWriter>();
        for (int mb = 0; mb < 6; ++mb) {
            if (hdr.type == FrameType::Key) {
                w->writeUInt(kCtxIntraMode, 0);
            } else {
                w->writeBit(kCtxSkip, 0);
                w->writeBit(kCtxIsInter, 1);
                const bool split = rng.uniformInt(2) == 1;
                w->writeBit(kCtxSplit, split ? 1 : 0);
                for (int q = 0; q < (split ? 4 : 1); ++q) {
                    w->writeUInt(kCtxRefIdx, rng.uniformInt(kNumRefSlots));
                    w->writeSInt(kCtxMvdX, randomMvd());
                    w->writeSInt(kCtxMvdY, randomMvd());
                }
                if (codec == CodecType::VP9 && !split) {
                    w->writeBit(kCtxCompound, 1);
                    w->writeUInt(kCtxRefIdx, rng.uniformInt(kNumRefSlots));
                    w->writeSInt(kCtxMvdX, randomMvd());
                    w->writeSInt(kCtxMvdY, randomMvd());
                }
            }
            for (int b = 0; b < 6; ++b)
                writeCoeffBlock(*w, zero);
        }
        if (codec == CodecType::VP9)
            model.adapt();
        sw.addFrame(hdr, w->finish());
    }
    return sw.take();
}

TEST(EdgeCases, HostileVectorsDecodeThroughEdgeEmulation)
{
    // Vectors far beyond any reference margin take the edge-emulation
    // fetch; over flat references every prediction is flat, so each
    // decoded frame must be exactly 128.
    for (CodecType codec : {CodecType::H264, CodecType::VP9}) {
        for (uint64_t seed = 0; seed < 8; ++seed) {
            const auto decoded =
                decodeChunk(hostileVectorStream(codec, seed));
            ASSERT_TRUE(decoded.has_value()) << "seed " << seed;
            ASSERT_EQ(decoded->frames.size(), 4u);
            for (const Frame &frame : decoded->frames)
                for (int p = 0; p < 3; ++p)
                    for (uint8_t px : frame.plane(p).data())
                        ASSERT_EQ(px, 128) << "seed " << seed;
        }
    }
}

TEST(EdgeCases, H264AndVp9StreamsAreDistinct)
{
    SynthSpec spec;
    spec.width = 48;
    spec.height = 32;
    spec.frame_count = 3;
    spec.seed = 17;
    auto clip = generateVideo(spec);
    auto h264 = encodeSequence(cfgFor(48, 32, CodecType::H264), clip);
    auto vp9 = encodeSequence(cfgFor(48, 32, CodecType::VP9), clip);
    EXPECT_NE(h264.bytes, vp9.bytes);
    EXPECT_EQ(decodeChunkOrDie(h264.bytes).codec, CodecType::H264);
    EXPECT_EQ(decodeChunkOrDie(vp9.bytes).codec, CodecType::VP9);
}

TEST(EdgeCases, LongGopDriftStaysBounded)
{
    // 30 inter frames referencing each other: reconstruction drift
    // would show as collapsing PSNR at the GOP tail.
    SynthSpec spec;
    spec.width = 64;
    spec.height = 48;
    spec.frame_count = 31;
    spec.detail = 2;
    spec.objects = 1;
    spec.motion = 1.0;
    spec.seed = 18;
    auto clip = generateVideo(spec);
    EncoderConfig cfg = cfgFor(64, 48);
    cfg.gop_length = 31;
    cfg.base_qp = 28;
    auto decoded = decodeChunkOrDie(encodeSequence(cfg, clip).bytes);
    const double head = framePsnr(clip[1], decoded.frames[1]);
    const double tail = framePsnr(clip[30], decoded.frames[30]);
    EXPECT_GT(tail, head - 6.0);
}

} // namespace
} // namespace wsva::video::codec
