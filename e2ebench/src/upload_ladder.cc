/**
 * @file
 * upload_ladder: the data plane. Each op is one serial upload through
 * platform::transcodeMot — VP9, two-pass offline rate control (so the
 * shared first pass runs), several closed-GOP chunks, a ladder at and
 * below the source size, and the pipeline's integrity decode. Inputs
 * are the 15-class vbench-style corpus, synthesized in set-up from the
 * run seed and cycled in a fixed order. No simulator code runs.
 */

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "video/metrics.h"
#include "video/synth.h"
#include "workload/vbench.h"
#include "workloads.h"

namespace e2e {

using wsva::platform::PipelineConfig;
using wsva::platform::TranscodeResult;
using wsva::video::Frame;
using wsva::video::Resolution;

namespace {

/**
 * Serial: every chunk x rung job runs on the calling thread, never on
 * a hardware-derived pool. On the 4-vCPU VM the benchmark was tuned
 * on, op_p90_ms of uploads fanned out over the thread pool (two
 * workers or one) varied 0.27-0.34 between runs (interquartile range
 * over median), of serial uploads 0.07-0.09.
 */
constexpr int kThreads = 1;

/** Top-rung target bitrate for the 192x108 corpus at 30 fps. */
constexpr double kTopBitrateBps = 100e3;

/** Rungs at and below the source: full, 2/3 and 1/2 size. */
std::vector<Resolution>
ladder(const Frame &source, int rungs)
{
    static const int kNum[] = {1, 2, 1};
    static const int kDen[] = {1, 3, 2};
    std::vector<Resolution> out;
    for (int r = 0; r < std::min(rungs, 3); ++r) {
        const int w = source.width() * kNum[r] / kDen[r];
        const int h = source.height() * kNum[r] / kDen[r];
        out.push_back({w - w % 2, h - h % 2});
    }
    return out;
}

/** The synthesized corpus and each clip's ladder. */
struct Corpus
{
    std::vector<std::vector<Frame>> clips;
    std::vector<std::vector<Resolution>> ladders;
};

Corpus
synthesize(const UploadLadderSize &size, uint64_t seed)
{
    Corpus corpus;
    for (auto clip : wsva::workload::vbenchCorpus(size.width, size.frames)) {
        clip.spec.seed = deriveSeed(seed, clip.spec.seed);
        corpus.clips.push_back(wsva::video::generateVideo(clip.spec));
        corpus.ladders.push_back(ladder(corpus.clips.back()[0], size.rungs));
    }
    return corpus;
}

/** Luma PSNR of @p decoded against @p source over the whole clip. */
double
lumaPsnr(const std::vector<Frame> &source, const std::vector<Frame> &decoded)
{
    double sse = 0.0;
    double samples = 0.0;
    for (size_t f = 0; f < source.size() && f < decoded.size(); ++f) {
        const auto &a = source[f].y();
        const auto &b = decoded[f].y();
        for (int y = 0; y < a.height(); ++y) {
            const uint8_t *ra = a.row(y);
            const uint8_t *rb = b.row(y);
            for (int x = 0; x < a.width(); ++x) {
                const double d = static_cast<double>(ra[x]) - rb[x];
                sse += d * d;
            }
        }
        samples += static_cast<double>(a.pixelCount());
    }
    return wsva::video::psnrFromMse(samples > 0 ? sse / samples : 0.0);
}

} // namespace

bool
UploadChecker::check(size_t clip, const TranscodeResult &result)
{
    std::vector<std::vector<uint8_t>> bytes;
    for (const auto &variant : result.variants) {
        for (const auto &chunk : variant.chunks)
            bytes.push_back(chunk.bytes);
    }
    auto &ref = refs_[clip];
    if (ref.empty()) {
        ref = std::move(bytes);
        return result.integrity_ok;
    }
    return result.integrity_ok && bytes == ref;
}

uint64_t
UploadChecker::digest() const
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const auto &clip : refs_) {
        h = fnvMix(h, clip.size());
        for (const auto &chunk : clip) {
            h = fnvMix(h, chunk.size());
            h = fnv1a(chunk.data(), chunk.size(), h);
        }
    }
    return h;
}

RunResult
runUploadLadder(const RunArgs &args, const UploadLadderSize &size)
{
    RunResult result;

    PipelineConfig cfg;
    cfg.encoder.rc_mode = wsva::video::codec::RcMode::TwoPassOffline;
    cfg.encoder.target_bitrate_bps = kTopBitrateBps;
    cfg.encoder.fps = 30.0;
    cfg.chunk_frames = size.chunk_frames;
    cfg.num_threads = kThreads;
    const auto codec = wsva::video::codec::CodecType::VP9;

    const size_t clips =
        wsva::workload::vbenchCorpus(size.width, size.frames).size();
    const uint64_t chunks_per_upload = static_cast<uint64_t>(
        (size.frames + size.chunk_frames - 1) / size.chunk_frames);

    Workload w;
    w.rounds = size.rounds;
    // The window is the first corpus cycle, and every loop measures
    // whole cycles, so each run weighs the fifteen content classes
    // alike.
    w.window_ops = clips;
    w.granule = clips;

    // Set-up: synthesize the corpus and run one warm-up upload (it
    // warms the allocator).
    Corpus corpus;
    w.setup = [&](int) {
        corpus = Corpus{};
        corpus = synthesize(size, args.seed);
        const auto warm = wsva::platform::transcodeMot(
            corpus.clips[0], corpus.ladders[0], codec, cfg);
        if (!warm.integrity_ok)
            result.fail("warm-up upload failed its integrity check");
    };

    // References persist across rounds: every round re-synthesizes the
    // corpus, and its uploads must reproduce the first round's bytes.
    UploadChecker checker(clips);
    double psnr_sum = 0.0;
    double kbps_sum = 0.0;
    double out_bytes = 0.0;
    size_t window_done = 0;
    bool have_window = false;

    TraceArm arm;
    wsva::MetricsRegistry pipe_metrics;
    uint64_t window_jobs = 0;

    w.op = [&](size_t i) {
        const size_t clip = i % clips;
        const auto &source = corpus.clips[clip];
        cfg.tracer = arm.tracer();
        cfg.metrics = arm.active() ? &pipe_metrics : nullptr;
        OpSample s;
        TranscodeResult out;
        {
            wsva::Span span(arm.tracer(), "upload", "bench");
            const double t0 = nowSeconds();
            out = wsva::platform::transcodeMot(source, corpus.ladders[clip],
                                               codec, cfg);
            s.ms = (nowSeconds() - t0) * 1e3;
        }
        s.steps = chunks_per_upload;
        const bool first = !checker.hasReference(clip);
        s.ok = checker.check(clip, out);
        if (first) {
            // Fingerprint window: the first transcode of every clip.
            const auto top = wsva::platform::assembleVariant(
                out.variants[0], source.size());
            psnr_sum += lumaPsnr(source, top);
            for (const auto &v : out.variants) {
                kbps_sum += v.bitrateBps() / 1e3;
                out_bytes += static_cast<double>(v.totalBytes());
            }
            if (++window_done == clips) {
                const double n = static_cast<double>(clips);
                recordWindow(result, have_window,
                             {{"psnr_db", psnr_sum / n},
                              {"kbps", kbps_sum / n},
                              {"codec.out_bytes", out_bytes}},
                             checker.digest());
                window_jobs = pipe_metrics.counter("pipeline.encode_jobs");
            }
        }
        return s;
    };
    w.per_layer = [&](RunResult &r, const TracedPass &pass) {
        const double n = static_cast<double>(pass.ops);
        const auto &prof = pass.profile;
        r.set("codec.first_pass_ms", arm.spanTotalMs("first_pass") / n,
              "ms");
        r.set("codec.encode_ms", arm.spanTotalMs("encode_chunk") / n, "ms");
        r.set("codec.decode_ms", arm.spanTotalMs("verify_variant") / n,
              "ms");
        r.set("codec.dct_quant_ms",
              phase(prof, "codec/dct_quant").excl_ms / n, "ms");
        r.set("codec.motion_search_ms",
              phase(prof, "codec/motion_search").excl_ms / n, "ms");
        // The scaler's only timer is the codec/interpolate phase around
        // scalePlane: scale_ms is all of it, interpolate_ms its
        // exclusive part (equal until the scaler gains a child phase).
        const auto scale = phase(prof, "codec/interpolate");
        r.set("video.scale_ms", scale.incl_ms / n, "ms");
        r.set("video.interpolate_ms", scale.excl_ms / n, "ms");
        const auto jobs = arm.spanDurationsMs("encode_chunk");
        r.set("platform.job_p50_ms", median(jobs), "ms");
        if (const auto p90 = tailQuantile(jobs, 0.9))
            r.set("platform.job_p90_ms", *p90, "ms");
        r.fingerprint["codec.dct_quant_calls"] = static_cast<double>(
            phase(pass.window_profile, "codec/dct_quant").calls);
        r.fingerprint["codec.motion_search_calls"] = static_cast<double>(
            phase(pass.window_profile, "codec/motion_search").calls);
        r.fingerprint["platform.jobs"] = static_cast<double>(window_jobs);
    };

    runWorkload(args, arm, w, result);
    return result;
}

} // namespace e2e
