/**
 * @file
 * Dynamic-optimizer benchmark: the Section 4.5 closed loop.
 *
 * 1. Probe fan-out: wall-clock of buildRateQualityCurve serial vs.
 *    thread-pool fan-out at 1/2/4/8 threads, with a bit-exactness
 *    check against the serial curve.
 * 2. Rate-quality cache: a catalog of distinct clips re-probed under
 *    a Zipf-shaped request stream (popular titles get re-processed —
 *    ladder changes, re-ingests); cache hit rate per skew exponent.
 * 3. Chosen-point quality: BD-rate of the per-title policy (cheapest
 *    probe meeting each quality target) against the one-QP-for-all
 *    default, aggregated across the catalog.
 * 4. Cluster coupling: UploadTraffic with optimizer probes on/off —
 *    Popular-bucket uploads emit their probe encodes as extra
 *    cluster-sim load, and the sim reports the cost.
 *
 * Emits JSON on stdout (`bench/run_benches.sh` redirects it into
 * BENCH_optimizer.json).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "platform/dynamic_optimizer.h"
#include "platform/rq_cache.h"
#include "video/metrics.h"
#include "video/synth.h"
#include "workload/traffic.h"

using namespace wsva::platform;
using wsva::Rng;
using wsva::bench::wallSeconds;
using wsva::video::Frame;
using wsva::video::generateVideo;
using wsva::video::RdPoint;
using wsva::video::SynthSpec;
using wsva::workload::UploadTraffic;
using wsva::workload::UploadTrafficConfig;

namespace {

std::vector<Frame>
catalogClip(int index)
{
    SynthSpec spec;
    spec.width = 96;
    spec.height = 56;
    spec.frame_count = 6;
    spec.detail = 1 + index % 3;
    spec.objects = 1 + index % 4;
    spec.motion = 1.0 + (index % 5) * 0.7;
    spec.seed = 1000 + static_cast<uint64_t>(index);
    return generateVideo(spec);
}

bool
curvesIdentical(const RateQualityCurve &a, const RateQualityCurve &b)
{
    if (a.points.size() != b.points.size())
        return false;
    for (size_t i = 0; i < a.points.size(); ++i) {
        const auto &pa = a.points[i];
        const auto &pb = b.points[i];
        if (pa.qp != pb.qp || pa.bitrate_bps != pb.bitrate_bps ||
            pa.psnr_db != pb.psnr_db ||
            pa.chunk.bytes != pb.chunk.bytes) {
            return false;
        }
    }
    return true;
}

/** Best-of-@p reps wall seconds of one curve build at @p threads. */
double
probeSeconds(const std::vector<Frame> &clip, int threads, int reps)
{
    DynamicOptimizerConfig cfg;
    cfg.num_threads = threads;
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const double t0 = wallSeconds();
        const auto curve = buildRateQualityCurve(clip, cfg);
        best = std::min(best, wallSeconds() - t0);
        if (curve.points.empty())
            return 0.0;
    }
    return best;
}

/** Draw an index in [0, n) with Zipf(s) weights (rank 1 heaviest). */
int
zipfDraw(Rng &rng, const std::vector<double> &cdf)
{
    const double u = rng.uniformReal();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<int>(std::min<size_t>(
        static_cast<size_t>(it - cdf.begin()), cdf.size() - 1));
}

std::vector<double>
zipfCdf(size_t n, double s)
{
    std::vector<double> cdf(n);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = total;
    }
    for (auto &c : cdf)
        c /= total;
    return cdf;
}

} // namespace

int
main()
{
    const int hw = wsva::ThreadPool::resolveThreads(0);
    std::printf("{\n");
    std::printf("  \"bench\": \"optimizer\",\n");
    std::printf("  \"hardware_threads\": %d,\n", hw);
    if (hw < 4) {
        std::printf("  \"note\": \"machine exposes %d hardware "
                    "thread(s); probe fan-out speedup is bounded by "
                    "cores, so the >=2x @ 4-thread shape only shows "
                    "on >=4 cores\",\n",
                    hw);
    }

    // --- 1. Probe fan-out: serial vs. pool, bit-exactness. ---------
    const auto probe_clip = catalogClip(0);
    {
        DynamicOptimizerConfig serial_cfg;
        serial_cfg.num_threads = 1;
        const auto serial_curve =
            buildRateQualityCurve(probe_clip, serial_cfg);
        DynamicOptimizerConfig pool_cfg;
        pool_cfg.num_threads = 4;
        const auto pool_curve =
            buildRateQualityCurve(probe_clip, pool_cfg);
        if (!curvesIdentical(serial_curve, pool_curve)) {
            std::fprintf(stderr,
                         "parallel probe curve diverged from serial\n");
            return 1;
        }
    }
    const int reps = 3;
    const double serial_s = probeSeconds(probe_clip, 1, reps);
    std::printf("  \"probe_fanout\": {\n");
    std::printf("    \"identical\": true,\n");
    std::printf("    \"probe_qps\": 5,\n");
    std::printf("    \"serial_ms\": %.3f,\n", serial_s * 1e3);
    std::printf("    \"threads\": [\n");
    const int thread_counts[] = {1, 2, 4, 8};
    for (size_t t = 0; t < 4; ++t) {
        const double s = thread_counts[t] == 1
            ? serial_s
            : probeSeconds(probe_clip, thread_counts[t], reps);
        std::printf("      {\"num_threads\": %d, \"ms\": %.3f, "
                    "\"speedup\": %.3f}%s\n",
                    thread_counts[t], s * 1e3, serial_s / s,
                    t + 1 < 4 ? "," : "");
    }
    std::printf("    ]\n");
    std::printf("  },\n");

    // --- 2. Cache hit rate vs. popularity skew. --------------------
    constexpr int kCatalog = 24;
    constexpr int kRequests = 200;
    std::vector<std::vector<Frame>> catalog;
    catalog.reserve(kCatalog);
    for (int i = 0; i < kCatalog; ++i)
        catalog.push_back(catalogClip(i));

    std::printf("  \"cache\": {\n");
    std::printf("    \"catalog_clips\": %d,\n", kCatalog);
    std::printf("    \"requests\": %d,\n", kRequests);
    std::printf("    \"default_skew\": 1.0,\n");
    std::printf("    \"skews\": [\n");
    const double skews[] = {0.6, 1.0, 1.4};
    double default_hit_rate = 0.0;
    for (size_t k = 0; k < 3; ++k) {
        wsva::MetricsRegistry registry;
        RqCacheConfig cache_cfg;
        cache_cfg.capacity_bytes = 8ULL << 20;
        cache_cfg.metrics = &registry;
        RqCache cache(cache_cfg);
        DynamicOptimizerConfig cfg;
        cfg.cache = &cache;
        Rng rng(99);
        const auto cdf = zipfCdf(kCatalog, skews[k]);
        for (int r = 0; r < kRequests; ++r) {
            const int clip_idx = zipfDraw(rng, cdf);
            const auto curve =
                rateQualityCurveFor(catalog[static_cast<size_t>(
                                        clip_idx)],
                                    cfg);
            if (!curve || curve->points.empty()) {
                std::fprintf(stderr, "cache path lost a curve\n");
                return 1;
            }
        }
        const auto stats = cache.stats();
        if (skews[k] == 1.0)
            default_hit_rate = stats.hitRate();
        std::printf("      {\"skew\": %.1f, \"hits\": %llu, "
                    "\"misses\": %llu, \"evictions\": %llu, "
                    "\"hit_rate\": %.3f, \"cache_bytes\": %zu}%s\n",
                    skews[k],
                    static_cast<unsigned long long>(stats.hits),
                    static_cast<unsigned long long>(stats.misses),
                    static_cast<unsigned long long>(stats.evictions),
                    stats.hitRate(), cache.sizeBytes(),
                    k + 1 < 3 ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"default_skew_hit_rate\": %.3f\n",
                default_hit_rate);
    std::printf("  },\n");

    // --- 3. Chosen-point BD-rate vs. one-QP-for-all default. -------
    // Build every catalog curve once (they are cached above but the
    // configs differ; rebuild keeps this section self-contained).
    std::vector<RateQualityCurve> curves;
    curves.reserve(kCatalog);
    DynamicOptimizerConfig curve_cfg;
    for (const auto &clip : catalog)
        curves.push_back(buildRateQualityCurve(clip, curve_cfg));
    const size_t n_qps = curve_cfg.probe_qps.size();
    // Quality targets: the cohort's mean PSNR at each probe QP, so
    // the two policies are compared over the same delivered range.
    std::vector<double> targets(n_qps);
    for (size_t j = 0; j < n_qps; ++j) {
        double psnr = 0.0;
        for (const auto &curve : curves)
            psnr += curve.points[j].psnr_db;
        targets[j] = psnr / kCatalog;
    }
    // Without per-title curves the default must provision for the
    // hardest clip: the cheapest single QP whose worst-case PSNR
    // across the catalog still meets the target. Per-title selection
    // lets every easy clip climb to a cheaper point individually.
    std::vector<RdPoint> fixed_policy(n_qps);
    std::vector<RdPoint> per_title_policy(n_qps);
    std::vector<double> savings_pct(n_qps);
    for (size_t j = 0; j < n_qps; ++j) {
        size_t fixed_idx = 0; // Lowest QP = safest fallback.
        for (size_t q = n_qps; q-- > 0;) {
            double worst = 1e30;
            for (const auto &curve : curves)
                worst = std::min(worst, curve.points[q].psnr_db);
            if (worst >= targets[j]) {
                fixed_idx = q; // Cheapest QP safe for every clip.
                break;
            }
        }
        double fixed_rate = 0.0;
        double fixed_psnr = 0.0;
        double title_rate = 0.0;
        double title_psnr = 0.0;
        for (const auto &curve : curves) {
            fixed_rate += curve.points[fixed_idx].bitrate_bps;
            fixed_psnr += curve.points[fixed_idx].psnr_db;
            const auto &chosen = curve.cheapestAtQuality(targets[j]);
            title_rate += chosen.bitrate_bps;
            title_psnr += chosen.psnr_db;
        }
        // Both policy curves are parameterized by the *guaranteed*
        // quality floor: bits the cohort pays to promise target_j on
        // every clip. That is the per-title economics (delivered
        // PSNR overshoots the floor on easy clips either way).
        fixed_policy[j] = {fixed_rate / kCatalog, targets[j]};
        per_title_policy[j] = {title_rate / kCatalog, targets[j]};
        (void)fixed_psnr;
        (void)title_psnr;
        savings_pct[j] =
            100.0 * (1.0 - title_rate / std::max(1.0, fixed_rate));
    }
    // Ascending-quality order for the BD fit.
    std::reverse(fixed_policy.begin(), fixed_policy.end());
    std::reverse(per_title_policy.begin(), per_title_policy.end());
    const double bd =
        wsva::video::bdRate(fixed_policy, per_title_policy);
    std::printf("  \"chosen_points\": {\n");
    std::printf("    \"description\": \"bits needed to guarantee each "
                "quality floor on every clip: per-title "
                "cheapestAtQuality vs the cheapest one-QP-for-all; "
                "bd_rate_pct < 0 means per-title needs fewer bits at "
                "equal guaranteed quality\",\n");
    std::printf("    \"targets\": [\n");
    for (size_t j = 0; j < n_qps; ++j) {
        std::printf("      {\"target_psnr\": %.2f, "
                    "\"fixed_bps\": %.0f, \"per_title_bps\": %.0f, "
                    "\"bitrate_savings_pct\": %.2f}%s\n",
                    targets[j],
                    fixed_policy[n_qps - 1 - j].bitrate_bps,
                    per_title_policy[n_qps - 1 - j].bitrate_bps,
                    savings_pct[j], j + 1 < n_qps ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"bd_rate_pct\": %.2f\n", bd);
    std::printf("  },\n");

    // --- 4. Closed loop: probe load in the cluster sim. ------------
    std::printf("  \"cluster\": {\n");
    const char *labels[] = {"probes_off", "probes_on"};
    for (int probes = 0; probes < 2; ++probes) {
        UploadTrafficConfig tcfg;
        tcfg.uploads_per_second = 2.0;
        tcfg.seed = 17;
        tcfg.optimizer_probes = probes == 1;
        UploadTraffic gen(tcfg);

        wsva::cluster::ClusterConfig ccfg;
        ccfg.hosts = 2;
        ccfg.vcus_per_host = 20;
        ccfg.seed = 17;
        ccfg.trace_capacity = 4096;
        wsva::cluster::ClusterSim sim(ccfg);
        const auto metrics = sim.run(600.0, 1.0, gen.asArrivalFn());

        std::printf("    \"%s\": {\n", labels[probes]);
        std::printf("      \"videos\": %llu,\n",
                    static_cast<unsigned long long>(
                        gen.videosGenerated()));
        std::printf("      \"videos_probed\": %llu,\n",
                    static_cast<unsigned long long>(gen.videosProbed()));
        std::printf("      \"probe_steps\": %llu,\n",
                    static_cast<unsigned long long>(
                        gen.probeStepsGenerated()));
        std::printf("      \"steps_submitted\": %llu,\n",
                    static_cast<unsigned long long>(
                        metrics.steps_submitted));
        std::printf("      \"steps_completed\": %llu,\n",
                    static_cast<unsigned long long>(
                        metrics.steps_completed));
        std::printf("      \"encoder_utilization\": %.4f,\n",
                    metrics.encoder_utilization);
        std::printf("      \"decoder_utilization\": %.4f,\n",
                    metrics.decoder_utilization);
        std::printf("      \"backlog_remaining\": %zu\n",
                    metrics.backlog_remaining);
        std::printf("    }%s\n", probes == 0 ? "," : "");
    }
    std::printf("  }\n");
    std::printf("}\n");
    return 0;
}
