/**
 * @file
 * Parallel transcoding engine benchmark: serial vs. thread-pool MOT
 * throughput (frames/s and speedup at 1/2/4/8 threads) plus a
 * motion-search kernel microbenchmark comparing the pre-optimization
 * inner loop (per-candidate sadAt, full SAD, recomputed final
 * prediction) against the shipped cached-block early-exit kernel.
 *
 * Emits JSON on stdout so the bench trajectory records real numbers
 * (`bench/run_benches.sh` redirects it into BENCH_pipeline.json).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "platform/pipeline.h"
#include "video/codec/motion_search.h"
#include "video/synth.h"

using namespace wsva::platform;
using wsva::bench::wallSeconds;
using wsva::video::Frame;
using wsva::video::generateVideo;
using wsva::video::Plane;
using wsva::video::SynthSpec;
using wsva::video::codec::blockSad;
using wsva::video::codec::extractBlock;
using wsva::video::codec::motionCompensate;
using wsva::video::codec::Mv;
using wsva::video::codec::sadAt;
using wsva::video::codec::SearchKind;
using wsva::video::codec::searchMotion;

namespace {

/**
 * Reference motion search replicating the pre-optimization kernel:
 * the source block is re-read from the Plane for every candidate via
 * sadAt, SAD always runs to completion, and the final prediction is
 * recomputed. Kept here (not in the library) purely as the
 * microbenchmark baseline.
 */
uint32_t
mvCostRef(Mv mv, Mv pred, uint32_t bias)
{
    const auto dx = static_cast<uint32_t>(std::abs(mv.x - pred.x));
    const auto dy = static_cast<uint32_t>(std::abs(mv.y - pred.y));
    return bias * (dx + dy);
}

wsva::video::codec::MotionResult
searchMotionReference(const Plane &src, const Plane &ref, int x, int y,
                      int n, Mv pred, int range, uint32_t bias)
{
    const int cx = pred.x / 2;
    const int cy = pred.y / 2;
    struct Cand
    {
        int dx, dy;
        uint32_t cost;
    };
    auto cost_at = [&](int dx, int dy) {
        const Mv mv{static_cast<int16_t>(dx * 2),
                    static_cast<int16_t>(dy * 2)};
        return sadAt(src, ref, x, y, n, dx, dy) + mvCostRef(mv, pred, bias);
    };
    Cand best{cx, cy, cost_at(cx, cy)};
    if (cx != 0 || cy != 0) {
        const uint32_t zc = cost_at(0, 0);
        if (zc < best.cost)
            best = {0, 0, zc};
    }
    for (int dy = -range; dy <= range; ++dy) {
        for (int dx = -range; dx <= range; ++dx) {
            const uint32_t c = cost_at(cx + dx, cy + dy);
            if (c < best.cost)
                best = {cx + dx, cy + dy, c};
        }
    }

    uint8_t cur[64 * 64];
    uint8_t predicted[64 * 64];
    extractBlock(src, x, y, n, cur);
    Mv best_mv{static_cast<int16_t>(best.dx * 2),
               static_cast<int16_t>(best.dy * 2)};
    motionCompensate(ref, x, y, n, best_mv, predicted);
    uint32_t best_cost =
        blockSad(cur, predicted, n) + mvCostRef(best_mv, pred, bias);
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0)
                continue;
            const Mv mv{static_cast<int16_t>(best.dx * 2 + dx),
                        static_cast<int16_t>(best.dy * 2 + dy)};
            motionCompensate(ref, x, y, n, mv, predicted);
            const uint32_t c =
                blockSad(cur, predicted, n) + mvCostRef(mv, pred, bias);
            if (c < best_cost) {
                best_cost = c;
                best_mv = mv;
            }
        }
    }
    motionCompensate(ref, x, y, n, best_mv, predicted);
    return {best_mv, blockSad(cur, predicted, n)};
}

std::vector<Frame>
benchClip()
{
    SynthSpec spec;
    spec.width = 256;
    spec.height = 144;
    spec.frame_count = 48;
    spec.detail = 2;
    spec.objects = 3;
    spec.motion = 3.0;
    spec.pan_speed = 0.5;
    spec.seed = 11;
    return generateVideo(spec);
}

PipelineConfig
benchConfig(int threads)
{
    PipelineConfig cfg;
    cfg.encoder.rc_mode = wsva::video::codec::RcMode::TwoPassOffline;
    cfg.encoder.target_bitrate_bps = 600e3;
    cfg.encoder.fps = 30.0;
    cfg.chunk_frames = 8; // 6 chunks x 3 rungs = 18 jobs.
    cfg.num_threads = threads;
    return cfg;
}

/** Encoded output frames (chunks x rungs) per wall-clock second. */
double
motFramesPerSecond(const std::vector<Frame> &clip,
                   const std::vector<Resolution> &ladder, int threads,
                   int repeats)
{
    const PipelineConfig cfg = benchConfig(threads);
    double best = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
        const double t0 = wallSeconds();
        const auto result =
            transcodeMot(clip, ladder, CodecType::VP9, cfg);
        const double dt = wallSeconds() - t0;
        if (!result.integrity_ok) {
            std::fprintf(stderr, "integrity failure: %s\n",
                         result.integrity_error.c_str());
            return 0.0;
        }
        const double fps =
            static_cast<double>(clip.size() * ladder.size()) / dt;
        best = std::max(best, fps);
    }
    return best;
}

} // namespace

int
main()
{
    const auto clip = benchClip();
    const std::vector<Resolution> ladder = {
        {256, 144}, {128, 72}, {64, 36}};

    // --- Kernel microbenchmark: old inner loop vs. shipped one. ----
    // Full-window search over a real frame pair from the clip (the
    // exhaustive kind maximizes candidate count, where the cached
    // block + early exit matter most).
    const Plane &ref_plane = clip[0].y();
    const Plane &src_plane = clip[2].y();
    const int kernel_range = 12;
    const int reps = 3;
    double ref_time = 1e30;
    double opt_time = 1e30;
    uint64_t ref_sink = 0;
    uint64_t opt_sink = 0;
    for (int rep = 0; rep < reps; ++rep) {
        double t0 = wallSeconds();
        for (int y = 0; y + 16 <= src_plane.height(); y += 16) {
            for (int x = 0; x + 16 <= src_plane.width(); x += 16) {
                const auto mr = searchMotionReference(
                    src_plane, ref_plane, x, y, 16, Mv{0, 0},
                    kernel_range, 2);
                ref_sink += mr.sad;
            }
        }
        ref_time = std::min(ref_time, wallSeconds() - t0);

        t0 = wallSeconds();
        for (int y = 0; y + 16 <= src_plane.height(); y += 16) {
            for (int x = 0; x + 16 <= src_plane.width(); x += 16) {
                const auto mr = searchMotion(src_plane, ref_plane, x, y,
                                             16, Mv{0, 0}, kernel_range,
                                             SearchKind::Exhaustive, 2);
                opt_sink += mr.sad;
            }
        }
        opt_time = std::min(opt_time, wallSeconds() - t0);
    }
    if (ref_sink != opt_sink) {
        std::fprintf(stderr,
                     "kernel mismatch: reference SAD sum %llu vs "
                     "optimized %llu\n",
                     static_cast<unsigned long long>(ref_sink),
                     static_cast<unsigned long long>(opt_sink));
        return 1;
    }
    const double kernel_speedup = ref_time / opt_time;

    // --- MOT pipeline throughput across thread counts. -------------
    const int hw = wsva::ThreadPool::resolveThreads(0);
    const double serial_fps = motFramesPerSecond(clip, ladder, 1, 2);

    std::printf("{\n");
    std::printf("  \"bench\": \"parallel_pipeline\",\n");
    std::printf("  \"clip\": {\"width\": 256, \"height\": 144, "
                "\"frames\": %zu, \"rungs\": %zu, \"chunk_frames\": 8},\n",
                clip.size(), ladder.size());
    std::printf("  \"hardware_threads\": %d,\n", hw);
    if (hw < 4) {
        std::printf("  \"note\": \"machine exposes %d hardware "
                    "thread(s); pool speedup is bounded by cores, so "
                    "the >=2.5x @ 4-thread shape only shows on >=4 "
                    "cores\",\n",
                    hw);
    }
    std::printf("  \"kernel\": {\n");
    std::printf("    \"description\": \"16x16 exhaustive motion search, "
                "per-candidate sadAt baseline vs cached-block "
                "early-exit\",\n");
    std::printf("    \"baseline_ms\": %.3f,\n", ref_time * 1e3);
    std::printf("    \"optimized_ms\": %.3f,\n", opt_time * 1e3);
    std::printf("    \"speedup\": %.3f\n", kernel_speedup);
    std::printf("  },\n");
    std::printf("  \"mot\": {\n");
    std::printf("    \"serial_output_fps\": %.2f,\n", serial_fps);
    std::printf("    \"threads\": [\n");
    const int thread_counts[] = {1, 2, 4, 8};
    for (size_t t = 0; t < 4; ++t) {
        const int threads = thread_counts[t];
        const double fps = threads == 1
            ? serial_fps
            : motFramesPerSecond(clip, ladder, threads, 2);
        std::printf("      {\"num_threads\": %d, \"output_fps\": %.2f, "
                    "\"speedup\": %.3f}%s\n",
                    threads, fps, fps / serial_fps,
                    t + 1 < 4 ? "," : "");
    }
    std::printf("    ]\n");
    std::printf("  }\n");
    std::printf("}\n");
    return 0;
}
