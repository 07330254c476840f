/**
 * @file
 * Continuous-profiling bench: the measurement artifact behind two
 * ROADMAP decisions.
 *
 *  1. Fleet hotspots: runs the fleet-scale sweep's top scale (10,000
 *     hosts / 200,000 VCUs, event engine, trough utilization) with
 *     the profiler and wall-clock sampler on, and reports the top-10
 *     phases by exclusive time — including the dispatch share that
 *     settles the "revisit sharding only if a profile shows dispatch
 *     dominating" question.
 *  2. Profiler overhead at fleet scale: alternating dark/enabled
 *     pairs on the same scenario; the per-pair wall-time ratio's
 *     median is the enabled cost (the hard ≤5% budget is gated in
 *     bench_observability on its paired scenario; this one is a
 *     sanity bound at full scale).
 *  3. Codec kernels: a real MOT transcode (synthetic clip through
 *     the software codec on the shared thread pool) with profiling
 *     on, ranking every codec/ phase by its share of encode time
 *     (the pipeline/encode_chunk phase: scaling plus encoding) —
 *     the ordering that picks the SIMD targets.
 *
 * Emits JSON on stdout (`bench/run_benches.sh` redirects it into
 * BENCH_profile.json). Exits non-zero on a broken ledger, an empty
 * profile, or an absurd overhead ratio.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "platform/pipeline.h"
#include "video/synth.h"

using namespace wsva;
using namespace wsva::cluster;
using namespace wsva::bench::trough;
using wsva::bench::wallSeconds;
using wsva::platform::PipelineConfig;
using wsva::platform::transcodeMot;
using wsva::video::SynthSpec;
using wsva::video::codec::CodecType;

namespace {

// bench_fleet_scale's trough scenario at its top scale, so the
// committed BENCH_fleet_scale.json numbers stay comparable (that
// bench runs profiler-dark; a regression there is also the "dark
// costs ~0" gate).
constexpr int kFleetHosts = 10000;
constexpr int kOverheadPairs = 5;
constexpr double kOverheadSanityPct = 25.0;
constexpr uint64_t kSamplerPeriodUs = 2000;
constexpr int kTopK = 10;

struct FleetRun
{
    ClusterMetrics m;
    bool conservation_holds = false;
    double wall_s = 0.0;
};

FleetRun
runFleet(int hosts, bool profiled)
{
    auto &prof = prof::ProfileRegistry::instance();
    prof.stopSampler();
    prof.reset();
    prof.setEnabled(profiled);
    if (profiled)
        prof.startSampler(kSamplerPeriodUs);

    FleetRun r;
    ClusterSim sim(config(hosts, /*observability=*/false));
    const double w0 = wallSeconds();
    r.m = sim.run(kHorizonSeconds, kTickSeconds,
                  arrivals(stepsPerTick(hosts)));
    r.wall_s = wallSeconds() - w0;
    r.conservation_holds = sim.conservation().holds() &&
                           r.m.conservation_violations == 0;

    prof.stopSampler();
    prof.setEnabled(false);
    return r;
}

std::string
phasesJson(const std::vector<prof::PhaseStat> &phases, int top_k,
           uint64_t total_excl, const char *indent)
{
    std::string out = "[";
    int shown = 0;
    for (const auto &p : phases) {
        if (shown >= top_k)
            break;
        out += strformat(
            "%s\n%s{\"phase\": \"%s\", \"calls\": %llu, "
            "\"incl_ms\": %.3f, \"excl_ms\": %.3f, "
            "\"samples\": %llu, \"share_pct\": %.2f}",
            shown ? "," : "", indent, p.name.c_str(),
            static_cast<unsigned long long>(p.calls),
            static_cast<double>(p.incl_ns) / 1e6,
            static_cast<double>(p.excl_ns) / 1e6,
            static_cast<unsigned long long>(p.samples),
            total_excl > 0
                ? 100.0 * static_cast<double>(p.excl_ns) / total_excl
                : 0.0);
        ++shown;
    }
    out += "\n";
    out += indent;
    out += "]";
    return out;
}

const prof::PhaseStat *
findPhase(const prof::ProfileSnapshot &snap, const std::string &name)
{
    for (const auto &p : snap.phases) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

} // namespace

int
main()
{
    auto &prof = prof::ProfileRegistry::instance();
    bool ok = true;

    // --- 1. Fleet hotspots at top scale, profiled. ------------------
    std::fprintf(stderr, "profile: %d hosts, profiler on ...\n",
                 kFleetHosts);
    const FleetRun hot = runFleet(kFleetHosts, /*profiled=*/true);
    ok = ok && hot.conservation_holds;
    const prof::ProfileSnapshot fleet_snap = prof.snapshot();
    uint64_t fleet_total_excl = 0;
    for (const auto &p : fleet_snap.phases)
        fleet_total_excl += p.excl_ns;
    ok = ok && !fleet_snap.phases.empty();

    // The ROADMAP sharding question: dispatch time (inclusive, so the
    // availability-index share is inside it) over the whole run.
    const prof::PhaseStat *run_p = findPhase(fleet_snap, "cluster/run");
    const prof::PhaseStat *disp_p =
        findPhase(fleet_snap, "cluster/dispatch");
    const prof::PhaseStat *index_p =
        findPhase(fleet_snap, "cluster/dispatch/index");
    const double run_incl_ms =
        run_p != nullptr ? static_cast<double>(run_p->incl_ns) / 1e6
                         : 0.0;
    const double dispatch_incl_ms =
        disp_p != nullptr ? static_cast<double>(disp_p->incl_ns) / 1e6
                          : 0.0;
    const double index_incl_ms =
        index_p != nullptr
            ? static_cast<double>(index_p->incl_ns) / 1e6
            : 0.0;
    const double dispatch_share_pct =
        run_incl_ms > 0.0 ? 100.0 * dispatch_incl_ms / run_incl_ms
                          : 0.0;

    // --- 2. Dark vs enabled overhead, alternating pairs. ------------
    std::vector<double> ratios;
    double dark_wall = 0.0;
    double enabled_wall = 0.0;
    uint64_t dark_events = 0;
    for (int p = 0; p < kOverheadPairs; ++p) {
        std::fprintf(stderr, "profile: overhead pair %d/%d ...\n",
                     p + 1, kOverheadPairs);
        // Alternate arm order so drift cancels across pairs, and take
        // each arm as the min of two runs: interference only ever
        // *adds* wall time (the bench_observability methodology).
        FleetRun dark, enabled;
        for (int pass = 0; pass < 2; ++pass) {
            FleetRun d, e;
            if (p % 2 == 0) {
                d = runFleet(kFleetHosts, false);
                e = runFleet(kFleetHosts, true);
            } else {
                e = runFleet(kFleetHosts, true);
                d = runFleet(kFleetHosts, false);
            }
            if (pass == 0 || d.wall_s < dark.wall_s)
                dark = d;
            if (pass == 0 || e.wall_s < enabled.wall_s)
                enabled = e;
        }
        ok = ok && dark.conservation_holds &&
             enabled.conservation_holds;
        // Profiling must not change what the sim computed.
        ok = ok && dark.m.steps_completed == enabled.m.steps_completed &&
             dark.m.events_processed == enabled.m.events_processed;
        if (dark.wall_s > 0.0)
            ratios.push_back(enabled.wall_s / dark.wall_s);
        dark_wall = dark.wall_s;
        enabled_wall = enabled.wall_s;
        dark_events = dark.m.events_processed;
    }
    std::sort(ratios.begin(), ratios.end());
    const double median_ratio =
        ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
    const double overhead_pct = (median_ratio - 1.0) * 100.0;
    const bool overhead_sane =
        !ratios.empty() && overhead_pct <= kOverheadSanityPct;
    ok = ok && overhead_sane;
    const double dark_events_per_s =
        dark_wall > 0.0 ? static_cast<double>(dark_events) / dark_wall
                        : 0.0;

    // --- 3. Codec kernel shares from a real transcode. --------------
    std::fprintf(stderr, "profile: codec kernel arm ...\n");
    prof.reset();
    prof.setEnabled(true);
    prof.startSampler(kSamplerPeriodUs);
    SynthSpec spec;
    spec.width = 320;
    spec.height = 180;
    spec.frame_count = 48;
    spec.detail = 2;
    spec.objects = 3;
    spec.motion = 3.0;
    spec.seed = 11;
    const auto clip = wsva::video::generateVideo(spec);
    PipelineConfig pcfg;
    pcfg.encoder.rc_mode = wsva::video::codec::RcMode::ConstQp;
    pcfg.encoder.base_qp = 32;
    pcfg.encoder.fps = 30.0;
    pcfg.chunk_frames = 16;
    const double cw0 = wallSeconds();
    const auto result = transcodeMot(
        clip, {{320, 180}, {160, 90}}, CodecType::VP9, pcfg);
    const double codec_wall = wallSeconds() - cw0;
    prof.stopSampler();
    prof.setEnabled(false);
    ok = ok && result.integrity_ok;

    const prof::ProfileSnapshot codec_snap = prof.snapshot();
    std::vector<prof::PhaseStat> kernels;
    uint64_t kernel_total_excl = 0;
    for (const auto &p : codec_snap.phases) {
        if (p.name.rfind("codec/", 0) == 0) {
            kernels.push_back(p);
            kernel_total_excl += p.excl_ns;
        }
    }
    ok = ok && !kernels.empty();
    // Shares are of encode time, so what the named phases leave
    // unattributed shows as the gap to 100%.
    const prof::PhaseStat *encode =
        findPhase(codec_snap, "pipeline/encode_chunk");
    const uint64_t encode_ns = encode != nullptr ? encode->incl_ns : 0;
    ok = ok && encode_ns > 0;

    // --- Emit. ------------------------------------------------------
    std::printf("{\n");
    std::printf("  \"bench\": \"profile\",\n");
    std::printf(
        "  \"scenario\": {\"hosts\": %d, \"vcus\": %d, "
        "\"horizon_s\": %.0f, \"tick_s\": %.2f, "
        "\"target_utilization\": %.2f, \"service_s\": %.0f, "
        "\"engine\": \"event\", \"sampler_period_us\": %llu},\n",
        kFleetHosts, kFleetHosts * kVcusPerHost, kHorizonSeconds,
        kTickSeconds, kTargetUtilization, kServiceSeconds,
        static_cast<unsigned long long>(kSamplerPeriodUs));
    std::printf("  \"fleet_hotspots\": {\n");
    std::printf("    \"wall_s\": %.3f,\n", hot.wall_s);
    std::printf("    \"events_processed\": %llu,\n",
                static_cast<unsigned long long>(
                    hot.m.events_processed));
    std::printf("    \"steps_completed\": %llu,\n",
                static_cast<unsigned long long>(
                    hot.m.steps_completed));
    std::printf("    \"total_excl_ms\": %.3f,\n",
                static_cast<double>(fleet_total_excl) / 1e6);
    std::printf("    \"total_samples\": %llu,\n",
                static_cast<unsigned long long>(
                    fleet_snap.total_samples));
    std::printf("    \"top10\": %s,\n",
                phasesJson(fleet_snap.phases, kTopK, fleet_total_excl,
                           "      ")
                    .c_str());
    std::printf("    \"sharding_question\": {\"run_incl_ms\": %.3f, "
                "\"dispatch_incl_ms\": %.3f, \"index_incl_ms\": %.3f, "
                "\"dispatch_share_pct\": %.2f, "
                "\"dispatch_dominates\": %s}\n",
                run_incl_ms, dispatch_incl_ms, index_incl_ms,
                dispatch_share_pct,
                dispatch_share_pct > 50.0 ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"overhead\": {\n");
    std::printf("    \"pairs\": %d,\n", kOverheadPairs);
    std::printf("    \"dark_wall_s\": %.3f,\n", dark_wall);
    std::printf("    \"enabled_wall_s\": %.3f,\n", enabled_wall);
    std::printf("    \"dark_events_per_s\": %.0f,\n",
                dark_events_per_s);
    std::printf("    \"enabled_overhead_pct\": %.2f,\n", overhead_pct);
    std::printf("    \"sanity_budget_pct\": %.1f,\n",
                kOverheadSanityPct);
    std::printf("    \"within_sanity_budget\": %s\n",
                overhead_sane ? "true" : "false");
    std::printf("  },\n");
    std::sort(kernels.begin(), kernels.end(),
              [](const prof::PhaseStat &a, const prof::PhaseStat &b) {
                  return a.excl_ns > b.excl_ns;
              });
    std::printf("  \"codec_kernels\": {\n");
    std::printf(
        "    \"clip\": {\"width\": %d, \"height\": %d, \"frames\": %d, "
        "\"rungs\": 2},\n",
        spec.width, spec.height, spec.frame_count);
    std::printf("    \"transcode_wall_s\": %.3f,\n", codec_wall);
    std::printf("    \"encode_incl_ms\": %.3f,\n",
                static_cast<double>(encode_ns) / 1e6);
    std::printf("    \"named_share_pct\": %.2f,\n",
                encode_ns > 0 ? 100.0 *
                                    static_cast<double>(kernel_total_excl) /
                                    static_cast<double>(encode_ns)
                              : 0.0);
    std::printf("    \"kernels\": %s,\n",
                phasesJson(kernels, kTopK, encode_ns, "      ").c_str());
    std::printf("    \"top_simd_target\": \"%s\"\n",
                kernels.empty() ? "" : kernels.front().name.c_str());
    std::printf("  },\n");
    std::printf("  \"conservation_holds_all_arms\": %s\n",
                ok ? "true" : "false");
    std::printf("}\n");

    if (!ok) {
        std::fprintf(stderr,
                     "bench_profile: ledger, profile, or overhead "
                     "check failed\n");
        return 1;
    }
    return 0;
}
