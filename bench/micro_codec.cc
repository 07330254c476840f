/**
 * @file
 * google-benchmark microbenchmarks for the codec primitives — the
 * kernels the VCU ossifies in silicon (Section 3.1: "we selected
 * parts of transcoding to implement in silicon based on their
 * maturity and computational cost").
 *
 * The transform, quantizer and SAD benchmarks take a `dispatch`
 * argument: 0 forces the scalar reference kernels, 1 runs what the
 * codec runs on this CPU (the AVX2 kernels where it has AVX2). The
 * half-pel filter, the rate estimate and the downscaler have one code
 * path each and take no such argument. bench/run_benches.sh records
 * the medians in BENCH_pipeline.json.
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "video/codec/decoder.h"
#include "video/codec/encoder.h"
#include "video/codec/fbc.h"
#include "video/codec/kernel_dispatch.h"
#include "video/codec/loop_filter.h"
#include "video/codec/mb_common.h"
#include "video/codec/mc.h"
#include "video/codec/motion_search.h"
#include "video/codec/range_coder.h"
#include "video/codec/transform.h"
#include "video/scaler.h"
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

/** Runs the codec's kernels on the target a benchmark's `dispatch`
 *  argument names until the benchmark returns. */
class KernelTarget
{
  public:
    explicit KernelTarget(const benchmark::State &state)
    {
        forceScalarKernels(state.range(0) == 0);
    }
    ~KernelTarget() { forceScalarKernels(false); }
    KernelTarget(const KernelTarget &) = delete;
    KernelTarget &operator=(const KernelTarget &) = delete;
};

void
dispatchArgs(benchmark::internal::Benchmark *b)
{
    b->ArgName("dispatch")->Arg(0)->Arg(1);
}

void
BM_BlockSad16(benchmark::State &state)
{
    const KernelTarget target(state);
    const Plane a = randomPlane(16, 16, 1);
    const Plane b = randomPlane(16, 16, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            blockSad(a.data().data(), b.data().data(), 16));
    }
}
BENCHMARK(BM_BlockSad16)->Apply(dispatchArgs);

/** Half a block's SAD: the bounded kernels exit about half way, as a
 *  losing motion-search candidate does. */
uint32_t
halfSad(const Plane &a, const Plane &b)
{
    return blockSad(a.data().data(), b.data().data(), 16) / 2;
}

void
BM_BlockSadBounded16(benchmark::State &state)
{
    const Plane a = randomPlane(16, 16, 1);
    const Plane b = randomPlane(16, 16, 2);
    const uint32_t bound = halfSad(a, b);
    const KernelTarget target(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(blockSadBounded(
            a.data().data(), b.data().data(), 16, bound));
    }
}
BENCHMARK(BM_BlockSadBounded16)->Apply(dispatchArgs);

void
BM_SadAgainstBlock16(benchmark::State &state)
{
    const Plane cur = randomPlane(16, 16, 1);
    const Plane ref = randomPlane(64, 64, 2);
    Plane window(16, 16);
    extractBlock(ref, 24, 24, 16, window.data().data());
    const uint32_t bound = halfSad(cur, window);
    const KernelTarget target(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sadAgainstBlock(cur.data().data(), ref, 24, 24, 16, bound));
    }
}
BENCHMARK(BM_SadAgainstBlock16)->Apply(dispatchArgs);

/** A residual as the encoder forms it (pixel minus prediction). */
ResidualBlock
randomResidual(uint64_t seed)
{
    Rng rng(seed);
    ResidualBlock in;
    for (auto &v : in)
        v = static_cast<int16_t>(rng.uniformRange(-128, 127));
    return in;
}

void
BM_ForwardDct8x8(benchmark::State &state)
{
    const KernelTarget target(state);
    const ResidualBlock in = randomResidual(3);
    std::array<int32_t, kTxCoeffs> out;
    for (auto _ : state) {
        forwardDct(in, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_ForwardDct8x8)->Apply(dispatchArgs);

void
BM_Quantize8x8(benchmark::State &state)
{
    const KernelTarget target(state);
    std::array<int32_t, kTxCoeffs> freq;
    forwardDct(randomResidual(3), freq);
    CoeffBlock levels;
    for (auto _ : state) {
        quantize(freq, 32, 0.33, levels);
        benchmark::DoNotOptimize(levels);
    }
}
BENCHMARK(BM_Quantize8x8)->Apply(dispatchArgs);

void
BM_InverseDct8x8(benchmark::State &state)
{
    const KernelTarget target(state);
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
BENCHMARK(BM_InverseDct8x8)->Apply(dispatchArgs);

void
BM_TransformQuantizeRoundTrip(benchmark::State &state)
{
    const KernelTarget target(state);
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
BENCHMARK(BM_TransformQuantizeRoundTrip)->Apply(dispatchArgs);

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

/** One half-pel phase (1 horizontal, 2 vertical, 3 both) at block
 *  size n, read in place. */
void
BM_MotionCompensateHalfPel(benchmark::State &state)
{
    const auto phase = static_cast<int>(state.range(0));
    const auto n = static_cast<int>(state.range(1));
    const Plane ref = randomPlane(128, 128, 6);
    const Mv mv{static_cast<int16_t>(6 + phase % 2),
                static_cast<int16_t>(4 + phase / 2)};
    uint8_t out[16 * 16];
    for (auto _ : state) {
        motionCompensate(ref, 48, 48, n, mv, out);
        benchmark::DoNotOptimize(out);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MotionCompensateHalfPel)
    ->ArgNames({"phase", "n"})
    ->ArgsProduct({{1, 2, 3}, {8, 16}});

/** The rate estimate of a sparse block (a few low-frequency levels,
 *  dense:0) or a dense one (every level nonzero, dense:1). */
void
BM_EstimateCoeffBits(benchmark::State &state)
{
    const bool dense = state.range(0) != 0;
    Rng rng(14);
    const auto &scan = zigzagOrder();
    CoeffBlock levels{};
    for (int si = 0; si < kTxCoeffs; ++si) {
        if (dense || (si < 10 && rng.bernoulli(0.4))) {
            const int magnitude = rng.uniformRange(1, 20);
            levels[static_cast<size_t>(scan[static_cast<size_t>(si)])] =
                static_cast<int16_t>(rng.bernoulli(0.5) ? -magnitude
                                                        : magnitude);
        }
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(estimateCoeffBits(levels));
}
BENCHMARK(BM_EstimateCoeffBits)->ArgName("dense")->Arg(0)->Arg(1);

/** One luma plane of upload_ladder's ladder: 192x108 down to w x h. */
void
BM_ScalePlane(benchmark::State &state)
{
    const Plane src = randomPlane(192, 108, 15);
    const auto w = static_cast<int>(state.range(0));
    const auto h = static_cast<int>(state.range(1));
    for (auto _ : state)
        benchmark::DoNotOptimize(scalePlane(src, w, h));
}
BENCHMARK(BM_ScalePlane)
    ->ArgNames({"w", "h"})
    ->Args({128, 72})
    ->Args({96, 54});

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
