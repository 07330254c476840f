#include "vcu/encoder_core.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "vcu/hlsim.h"
#include "video/frame.h"

namespace wsva::vcu {

namespace {

using wsva::video::codec::CodecType;

/** Deterministic per-MB jitter in [1 - spread, 1 + spread]. */
double
mbJitter(uint64_t seed, uint32_t index, uint32_t salt, double spread)
{
    uint64_t h = seed ^ (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ULL)
                 ^ (static_cast<uint64_t>(salt) << 32);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    const double u =
        static_cast<double>((h >> 33) & 0xffffff) / double(0xffffff);
    return 1.0 - spread + 2.0 * spread * u;
}

} // namespace

EncodeEstimate
EncoderCoreModel::estimate(const EncodeJob &job) const
{
    WSVA_ASSERT(job.width > 0 && job.height > 0 && job.frame_count > 0,
                "bad encode job %dx%d x%d", job.width, job.height,
                job.frame_count);

    const int mb_cols = (job.width + 15) / 16;
    const int mb_rows = (job.height + 15) / 16;
    const uint32_t mbs = static_cast<uint32_t>(mb_cols * mb_rows);

    const double codec_factor =
        job.codec == CodecType::VP9 ? cfg_.vp9_cycle_factor : 1.0;
    const double ref_factor =
        1.0 + cfg_.ref_cycle_factor * std::max(0, job.num_refs - 1);
    const double base = cfg_.base_cycles_per_mb * codec_factor * ref_factor;

    // Per-MB service times for the three Figure-4 macro stages. The
    // entropy stage has the widest mode-dependent variability
    // (Section 3.2: "the wide variety of blocks and modes can lead to
    // significant variability"); FIFOs absorb most of it.
    std::vector<StageSpec> stages = {
        {"motion_rdo", cfg_.fifo_depth},
        {"entropy_decode_tf", cfg_.fifo_depth},
        {"loopfilter_fbc", cfg_.fifo_depth},
    };
    std::vector<std::vector<uint32_t>> service(3);
    for (auto &row : service)
        row.resize(mbs);
    for (uint32_t i = 0; i < mbs; ++i) {
        service[0][i] = static_cast<uint32_t>(
            base * mbJitter(job.seed, i, 0, 0.15));
        service[1][i] = static_cast<uint32_t>(
            0.85 * base * mbJitter(job.seed, i, 1, 0.35));
        service[2][i] = static_cast<uint32_t>(
            0.60 * base * mbJitter(job.seed, i, 2, 0.05));
    }

    const PipelineResult pipe =
        simulatePipeline(stages, service, cfg_.tracer);

    const double hz = cfg_.clock_ghz * 1e9;
    double seconds_per_frame =
        static_cast<double>(pipe.total_cycles) / hz;
    if (job.two_pass) {
        // First analysis pass runs with reduced tools at ~35% cost.
        seconds_per_frame *= 1.35;
    }

    EncodeEstimate est;
    est.seconds = seconds_per_frame * job.frame_count;
    const double total_pixels = static_cast<double>(job.width) *
                                job.height * job.frame_count;
    est.pixels_per_second = total_pixels / est.seconds;
    est.bottleneck_utilization = 0.0;
    for (const auto &st : pipe.stages)
        est.bottleneck_utilization =
            std::max(est.bottleneck_utilization, st.utilization);

    // DRAM traffic: input read + reference reads (FBC-compressed,
    // with a modest re-read factor from window overlap) + reference
    // write (compressed).
    const double frame_bytes = static_cast<double>(
        wsva::video::rawFrameBytes(job.width, job.height));
    const double fps_effective = job.frame_count / est.seconds;
    const double reread = 1.15;
    const double read_bytes_per_frame =
        frame_bytes +
        frame_bytes * job.num_refs * reread / cfg_.fbc_read_ratio;
    const double write_bytes_per_frame =
        frame_bytes / cfg_.fbc_read_ratio;
    est.dram_read_gibps =
        read_bytes_per_frame * fps_effective / double(1ull << 30);
    est.dram_write_gibps =
        write_bytes_per_frame * fps_effective / double(1ull << 30);

    est.realtime = est.seconds <= job.frame_count / job.fps + 1e-9;
    return est;
}

double
decodeSeconds(const DecoderCoreConfig &cfg, int width, int height,
              int frame_count)
{
    WSVA_ASSERT(width > 0 && height > 0 && frame_count > 0,
                "bad decode job");
    const double pixels =
        static_cast<double>(width) * height * frame_count;
    return pixels / cfg.pixel_rate;
}

} // namespace wsva::vcu
