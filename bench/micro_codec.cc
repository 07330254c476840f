/**
 * @file
 * google-benchmark microbenchmarks for the codec primitives — the
 * kernels the VCU ossifies in silicon (Section 3.1: "we selected
 * parts of transcoding to implement in silicon based on their
 * maturity and computational cost").
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "video/codec/decoder.h"
#include "video/codec/encoder.h"
#include "video/codec/fbc.h"
#include "video/codec/loop_filter.h"
#include "video/codec/mc.h"
#include "video/codec/motion_search.h"
#include "video/codec/range_coder.h"
#include "video/codec/transform.h"
#include "video/synth.h"

using namespace wsva;
using namespace wsva::video;
using namespace wsva::video::codec;

namespace {

Plane
randomPlane(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    Plane p(w, h);
    for (auto &px : p.data())
        px = static_cast<uint8_t>(rng.uniformInt(256));
    return p;
}

void
BM_BlockSad16(benchmark::State &state)
{
    const Plane a = randomPlane(16, 16, 1);
    const Plane b = randomPlane(16, 16, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            blockSad(a.data().data(), b.data().data(), 16));
    }
}
BENCHMARK(BM_BlockSad16);

void
BM_ForwardDct8x8(benchmark::State &state)
{
    Rng rng(3);
    ResidualBlock in;
    for (auto &v : in)
        v = static_cast<int16_t>(rng.uniformRange(-128, 127));
    std::array<int32_t, kTxCoeffs> out;
    for (auto _ : state) {
        forwardDct(in, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_ForwardDct8x8);

void
BM_InverseDct8x8(benchmark::State &state)
{
    // Dequantized levels of a busy block: the inverse runs only on
    // blocks with a nonzero level.
    Rng rng(13);
    CoeffBlock levels;
    for (auto &l : levels)
        l = static_cast<int16_t>(rng.uniformRange(-8, 8));
    std::array<int32_t, kTxCoeffs> in;
    dequantize(levels, 32, in);
    ResidualBlock out;
    for (auto _ : state) {
        inverseDct(in, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_InverseDct8x8);

void
BM_TransformQuantizeRoundTrip(benchmark::State &state)
{
    Rng rng(4);
    ResidualBlock in;
    for (auto &v : in)
        v = static_cast<int16_t>(rng.uniformRange(-64, 64));
    CoeffBlock levels;
    ResidualBlock recon;
    for (auto _ : state) {
        transformQuantize(in, 32, 0.33, false, 0.0, levels, recon);
        benchmark::DoNotOptimize(recon);
    }
}
BENCHMARK(BM_TransformQuantizeRoundTrip);

void
BM_RangeCoderEncodeBit(benchmark::State &state)
{
    Rng rng(5);
    std::vector<int> bits(4096);
    for (auto &b : bits)
        b = static_cast<int>(rng.uniformInt(2));
    for (auto _ : state) {
        RangeEncoder enc;
        for (int b : bits)
            enc.encodeBit(180, b);
        benchmark::DoNotOptimize(enc.finish());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            4096);
}
BENCHMARK(BM_RangeCoderEncodeBit);

void
BM_MotionCompensateHalfPel(benchmark::State &state)
{
    const Plane ref = randomPlane(128, 128, 6);
    uint8_t out[16 * 16];
    for (auto _ : state) {
        motionCompensate(ref, 48, 48, 16, Mv{7, 5}, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_MotionCompensateHalfPel);

void
BM_MotionSearch(benchmark::State &state)
{
    const bool exhaustive = state.range(0) != 0;
    const Plane src = randomPlane(128, 128, 7);
    const Plane ref = randomPlane(128, 128, 8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(searchMotion(
            src, ref, 48, 48, 16, Mv{0, 0}, 8,
            exhaustive ? SearchKind::Exhaustive : SearchKind::Diamond));
    }
}
BENCHMARK(BM_MotionSearch)->Arg(0)->Arg(1);

void
BM_DeblockPlane(benchmark::State &state)
{
    Plane p = randomPlane(320, 180, 9);
    for (auto _ : state) {
        deblockPlane(p, 36);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_DeblockPlane);

void
BM_FbcCompress(benchmark::State &state)
{
    SynthSpec spec;
    spec.width = 320;
    spec.height = 180;
    spec.frame_count = 1;
    spec.detail = 2;
    spec.seed = 10;
    const Frame f = generateFrameAt(spec, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(fbcCompress(f.y()));
}
BENCHMARK(BM_FbcCompress);

void
BM_EncodeFrame(benchmark::State &state)
{
    const bool hardware = state.range(0) != 0;
    SynthSpec spec;
    spec.width = 192;
    spec.height = 108;
    spec.frame_count = 4;
    spec.detail = 2;
    spec.objects = 2;
    spec.motion = 2.0;
    spec.seed = 11;
    const auto clip = generateVideo(spec);
    EncoderConfig cfg;
    cfg.codec = CodecType::VP9;
    cfg.width = spec.width;
    cfg.height = spec.height;
    cfg.base_qp = 36;
    cfg.gop_length = 4;
    cfg.hardware = hardware;
    for (auto _ : state)
        benchmark::DoNotOptimize(encodeSequence(cfg, clip));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            spec.frame_count);
}
BENCHMARK(BM_EncodeFrame)->Arg(0)->Arg(1);

void
BM_DecodeFrame(benchmark::State &state)
{
    SynthSpec spec;
    spec.width = 192;
    spec.height = 108;
    spec.frame_count = 4;
    spec.detail = 2;
    spec.seed = 12;
    const auto clip = generateVideo(spec);
    EncoderConfig cfg;
    cfg.codec = CodecType::VP9;
    cfg.width = spec.width;
    cfg.height = spec.height;
    cfg.base_qp = 36;
    cfg.gop_length = 4;
    const auto chunk = encodeSequence(cfg, clip);
    for (auto _ : state)
        benchmark::DoNotOptimize(decodeChunkOrDie(chunk.bytes));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            spec.frame_count);
}
BENCHMARK(BM_DecodeFrame);

} // namespace

BENCHMARK_MAIN();
