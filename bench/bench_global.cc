/**
 * @file
 * Global serving bench: 8 regions x 625 hosts x 20 VCUs = 100,000
 * aggregate VCUs behind one GlobalRouter (event engine per region),
 * under region-tagged upload traffic. Mid-run, one region is driven
 * into the paper's black-hole mode (Section 4.4: silently faulty
 * VCUs that complete fast and wrong, so load-based routing would
 * *prefer* them), and the router's health gates must quarantine it,
 * expel its backlog, and reroute — the ablation arm runs the same
 * fault with gating observing but never acting.
 *
 * Three arms:
 *   baseline            fault-free, gating on;
 *   blackhole_gated     region 3 black-holes at t=50 s, gating on;
 *   blackhole_ungated   the same fault, gating observe-only.
 *
 * The load-bearing numbers are availability (completed / submitted
 * at the horizon) and retry amplification (executed attempts per
 * completion): gating must win both, and the cross-region
 * conservation ledger — Σ per-region (completed + failed + in-flight
 * + backlog + shed) + router-pending == submitted — must hold in
 * every arm, audited every router step.
 *
 * Emits JSON on stdout (`bench/run_benches.sh` redirects it into
 * BENCH_global.json) and exits non-zero when an invariant fails.
 */

#include <chrono>
#include <cstdio>
#include <ctime>
#include <vector>

#include "global/global_router.h"
#include "workload/traffic.h"

using namespace wsva::global;
using wsva::cluster::ClusterSim;
using wsva::cluster::ConservationSnapshot;

namespace {

constexpr int kRegions = 8;
constexpr int kHostsPerRegion = 625;
constexpr int kVcusPerHost = 20; //!< 100k VCUs aggregate.
constexpr double kHorizonSeconds = 150.0;
constexpr double kStepSeconds = 4.0;  //!< Router decision cadence.
constexpr double kTickSeconds = 0.5;  //!< Event-engine quantum.

// ~60 uploads/s per region -> ~960 steps/s per region (8 chunks per
// mean 40 s video, H.264 + VP9), ~1.15M steps fleet-wide over the
// horizon at ~20% VCU occupancy.
constexpr double kUploadsPerSecond = 60.0;

constexpr int kBlackholeRegion = 3;
constexpr double kBlackholeAtSeconds = 50.0;
constexpr double kBlackholeSpeedFactor = 0.4;

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

GlobalRouterConfig
routerConfig(bool gating)
{
    GlobalRouterConfig cfg;
    cfg.regions = kRegions;
    cfg.step_seconds = kStepSeconds;
    cfg.dt = kTickSeconds;
    cfg.health_gating = gating;

    cfg.cluster.hosts = kHostsPerRegion;
    cfg.cluster.vcus_per_host = kVcusPerHost;
    cfg.cluster.seed = 77;
    // The black-hole failure shape: corruption is always detected
    // (every bad completion retries), and nothing self-heals — no
    // golden screening, no abort, a fault threshold never reached.
    // The router's health gate is the only defense, which is the
    // ablation point.
    cfg.cluster.failure.integrity_detect_prob = 1.0;
    cfg.cluster.failure.golden_screening = false;
    cfg.cluster.failure.abort_on_failure = false;
    cfg.cluster.failure.host_fault_threshold = 1 << 30;
    // Per-region telemetry off at this scale (same policy as
    // bench_fleet_scale); the router's own global.* registry stays on.
    cfg.cluster.observability = false;
    cfg.cluster.slo.enabled = false;
    cfg.cluster.track_blast_radius = false;
    return cfg;
}

struct ArmResult
{
    GlobalConservation g;
    std::vector<RegionStatus> regions;
    std::vector<ConservationSnapshot> snaps;
    bool regions_hold = true;
    double availability = 0.0;
    double amplification = 0.0;
    uint64_t rerouted = 0;
    uint64_t audit_checks = 0;
    uint64_t audit_violations = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

ArmResult
runArm(bool fault, bool gating)
{
    GlobalRouter router(routerConfig(gating));
    wsva::workload::UploadTrafficConfig uploads;
    uploads.uploads_per_second = kUploadsPerSecond;
    uploads.seed = 4242;
    wsva::workload::RegionalUploadTraffic traffic(kRegions, uploads);
    const auto arrivals = [&traffic](int region, double now,
                                     double dt) {
        return traffic.arrivals(region, now, dt);
    };

    ArmResult r;
    const double w0 = wallSeconds();
    const double c0 = cpuSeconds();
    router.runFor(kBlackholeAtSeconds, arrivals);
    if (fault)
        router.region(kBlackholeRegion)
            .forceSilentFaults(kBlackholeSpeedFactor);
    router.runFor(kHorizonSeconds - kBlackholeAtSeconds, arrivals);
    r.wall_s = wallSeconds() - w0;
    r.cpu_s = cpuSeconds() - c0;

    r.g = router.conservation();
    for (int i = 0; i < kRegions; ++i) {
        r.regions.push_back(router.status(i));
        r.snaps.push_back(router.region(i).conservation());
        r.regions_hold = r.regions_hold && r.snaps.back().holds();
    }
    r.availability = router.availability();
    r.amplification = router.retryAmplification();
    r.rerouted = router.reroutedTotal();
    r.audit_checks = router.auditChecks();
    r.audit_violations = router.auditViolations();
    return r;
}

void
printArm(const char *key, const ArmResult &r, bool last)
{
    std::printf(
        "    \"%s\": {\"wall_s\": %.3f, \"cpu_s\": %.3f, "
        "\"availability\": %.6g, \"retry_amplification\": %.6g,\n"
        "      \"rerouted\": %llu, \"audit_checks\": %llu, "
        "\"audit_violations\": %llu, \"regions_hold\": %s,\n"
        "      \"conservation\": {\"submitted\": %llu, "
        "\"completed\": %llu, \"failed_terminal\": %llu, "
        "\"in_flight\": %llu, \"backlog\": %llu, \"shed\": %llu, "
        "\"pending\": %llu, \"holds\": %s},\n"
        "      \"regions\": [",
        key, r.wall_s, r.cpu_s, r.availability, r.amplification,
        static_cast<unsigned long long>(r.rerouted),
        static_cast<unsigned long long>(r.audit_checks),
        static_cast<unsigned long long>(r.audit_violations),
        r.regions_hold ? "true" : "false",
        static_cast<unsigned long long>(r.g.submitted),
        static_cast<unsigned long long>(r.g.completed),
        static_cast<unsigned long long>(r.g.failed_terminal),
        static_cast<unsigned long long>(r.g.in_flight),
        static_cast<unsigned long long>(r.g.backlog),
        static_cast<unsigned long long>(r.g.shed),
        static_cast<unsigned long long>(r.g.pending),
        r.g.holds() ? "true" : "false");
    for (int i = 0; i < kRegions; ++i) {
        const RegionStatus &st = r.regions[static_cast<size_t>(i)];
        std::printf(
            "%s\n        {\"id\": %d, \"quarantined\": %s, "
            "\"routed\": %llu, \"rerouted_in\": %llu, "
            "\"expelled\": %llu, \"retries\": %llu, "
            "\"completions\": %llu, \"retry_amplification\": %.6g, "
            "\"quarantine_entries\": %llu, \"readmissions\": %llu}",
            i > 0 ? "," : "", st.id,
            st.quarantined ? "true" : "false",
            static_cast<unsigned long long>(st.routed),
            static_cast<unsigned long long>(st.rerouted_in),
            static_cast<unsigned long long>(st.expelled),
            static_cast<unsigned long long>(st.retries),
            static_cast<unsigned long long>(st.completions),
            st.retryAmplification(),
            static_cast<unsigned long long>(st.quarantine_entries),
            static_cast<unsigned long long>(st.readmissions));
    }
    std::printf("]}%s\n", last ? "" : ",");
}

} // namespace

int
main()
{
    std::fprintf(stderr, "global: baseline arm (fault-free) ...\n");
    const ArmResult baseline = runArm(false, true);
    std::fprintf(stderr, "global: black-hole arm, gating on ...\n");
    const ArmResult gated = runArm(true, true);
    std::fprintf(stderr, "global: black-hole arm, gating off ...\n");
    const ArmResult ungated = runArm(true, false);

    const bool all_hold =
        baseline.g.holds() && baseline.regions_hold &&
        baseline.audit_violations == 0 && gated.g.holds() &&
        gated.regions_hold && gated.audit_violations == 0 &&
        ungated.g.holds() && ungated.regions_hold &&
        ungated.audit_violations == 0;
    // Fault-free, every attempt completes: amplification exactly 1.
    const bool baseline_clean = baseline.amplification == 1.0;
    const auto &g3 = gated.regions[kBlackholeRegion];
    const auto &u3 = ungated.regions[kBlackholeRegion];
    const bool gate_tripped =
        g3.quarantine_entries >= 1 && u3.quarantine_entries >= 1;
    // Gating must buy availability (with clear margin) and keep the
    // attempt churn bounded instead of letting the black hole eat
    // one region's traffic for the rest of the run.
    const bool availability_wins =
        gated.availability > ungated.availability + 0.02;
    const bool amplification_bounded =
        gated.amplification < ungated.amplification &&
        gated.amplification <= 1.25;

    std::printf("{\n");
    std::printf("  \"bench\": \"global\",\n");
    std::printf("  \"schema_version\": %d,\n",
                ClusterSim::kExportSchemaVersion);
    std::printf(
        "  \"scenario\": {\"regions\": %d, \"hosts_per_region\": %d, "
        "\"vcus\": %d, \"engine\": \"event\",\n"
        "    \"horizon_s\": %.0f, \"step_s\": %.1f, \"tick_s\": %.2f, "
        "\"uploads_per_s_per_region\": %.0f,\n"
        "    \"blackhole_region\": %d, \"blackhole_at_s\": %.0f, "
        "\"blackhole_speed_factor\": %.2f,\n"
        "    \"gate\": {\"quarantine_retry_rate\": %.2f, "
        "\"readmit_retry_rate\": %.2f, \"min_quarantine_s\": %.0f, "
        "\"window_steps\": %zu, \"min_window_attempts\": %llu}},\n",
        kRegions, kHostsPerRegion,
        kRegions * kHostsPerRegion * kVcusPerHost, kHorizonSeconds,
        kStepSeconds, kTickSeconds, kUploadsPerSecond,
        kBlackholeRegion, kBlackholeAtSeconds, kBlackholeSpeedFactor,
        RegionHealthConfig{}.quarantine_retry_rate,
        RegionHealthConfig{}.readmit_retry_rate,
        RegionHealthConfig{}.min_quarantine_seconds,
        RegionHealthConfig{}.window_steps,
        static_cast<unsigned long long>(
            RegionHealthConfig{}.min_window_attempts));
    std::printf("  \"arms\": {\n");
    printArm("baseline", baseline, false);
    printArm("blackhole_gated", gated, false);
    printArm("blackhole_ungated", ungated, true);
    std::printf("  },\n");
    std::printf("  \"acceptance\": {\n");
    std::printf("    \"availability_gated\": %.6g,\n",
                gated.availability);
    std::printf("    \"availability_ungated\": %.6g,\n",
                ungated.availability);
    std::printf("    \"amplification_gated\": %.6g,\n",
                gated.amplification);
    std::printf("    \"amplification_ungated\": %.6g,\n",
                ungated.amplification);
    std::printf("    \"baseline_clean\": %s,\n",
                baseline_clean ? "true" : "false");
    std::printf("    \"gate_tripped_both_arms\": %s,\n",
                gate_tripped ? "true" : "false");
    std::printf("    \"availability_wins\": %s,\n",
                availability_wins ? "true" : "false");
    std::printf("    \"amplification_bounded\": %s\n",
                amplification_bounded ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"conservation_holds_all_arms\": %s\n",
                all_hold ? "true" : "false");
    std::printf("}\n");

    if (!all_hold) {
        std::fprintf(stderr, "global conservation violated\n");
        return 1;
    }
    if (!baseline_clean || !gate_tripped || !availability_wins ||
        !amplification_bounded) {
        std::fprintf(stderr,
                     "global acceptance failed: availability %.4f vs "
                     "%.4f, amplification %.3f vs %.3f\n",
                     gated.availability, ungated.availability,
                     gated.amplification, ungated.amplification);
        return 1;
    }
    return 0;
}
