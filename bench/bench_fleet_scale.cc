/**
 * @file
 * Fleet-scale bench for the discrete-event cluster core: sweeps the
 * fleet from 4 hosts to 10,000 hosts (200k VCUs) under a trough-
 * utilization upload workload (~6% busy, ~20 s services, light fault
 * processes — the overnight valley where a scanning engine would
 * waste almost every cycle), and reports events/s, wall time, and
 * resident bytes per worker at each scale. `bench/run_benches.sh`
 * gates the top scale's events/s against the committed file.
 *
 * Emits JSON on stdout (`bench/run_benches.sh` redirects it into
 * BENCH_fleet_scale.json).
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"

using namespace wsva::cluster;
using namespace wsva::bench::trough;
using wsva::bench::cpuSeconds;
using wsva::bench::wallSeconds;

namespace {

constexpr int kObsArmHosts = 400;

const int kSweepHosts[] = {4, 40, 400, 2000, 10000};

/** Resident set size from /proc/self/status (0 if unavailable). */
uint64_t
rssBytes()
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    uint64_t kb = 0;
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmRSS:", 6) == 0) {
            std::sscanf(line + 6, "%llu",
                        reinterpret_cast<unsigned long long *>(&kb));
            break;
        }
    }
    std::fclose(f);
    return kb * 1024;
}

struct ArmResult
{
    ClusterMetrics m;
    bool conservation_holds = false;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    uint64_t rss_delta = 0;
};

ArmResult
runArm(int hosts, bool observability)
{
    ArmResult r;
    const uint64_t rss0 = rssBytes();
    ClusterSim sim(config(hosts, observability));
    const double w0 = wallSeconds();
    const double c0 = cpuSeconds();
    r.m = sim.run(kHorizonSeconds, kTickSeconds,
                  arrivals(stepsPerTick(hosts)));
    r.wall_s = wallSeconds() - w0;
    r.cpu_s = cpuSeconds() - c0;
    const uint64_t rss1 = rssBytes();
    r.rss_delta = rss1 > rss0 ? rss1 - rss0 : 0;
    r.conservation_holds = sim.conservation().holds() &&
                           r.m.conservation_violations == 0;
    return r;
}

void
printArm(int hosts, const ArmResult &r)
{
    const int vcus = hosts * kVcusPerHost;
    const double events_per_s =
        r.wall_s > 0.0 ? r.m.events_processed / r.wall_s : 0.0;
    std::printf(
        "      \"event\": {\"wall_s\": %.3f, \"cpu_s\": %.3f, "
        "\"steps_submitted\": %llu, \"steps_completed\": %llu, "
        "\"steps_retried\": %llu, \"events_processed\": %llu, "
        "\"events_per_s\": %.0f, \"rss_delta_bytes\": %llu, "
        "\"rss_bytes_per_worker\": %.0f, "
        "\"conservation_holds\": %s}\n",
        r.wall_s, r.cpu_s,
        static_cast<unsigned long long>(r.m.steps_submitted),
        static_cast<unsigned long long>(r.m.steps_completed),
        static_cast<unsigned long long>(r.m.steps_retried),
        static_cast<unsigned long long>(r.m.events_processed),
        events_per_s,
        static_cast<unsigned long long>(r.rss_delta),
        static_cast<double>(r.rss_delta) / vcus,
        r.conservation_holds ? "true" : "false");
}

} // namespace

int
main()
{
    bool all_hold = true;

    // --- Scale sweep.
    const size_t n_scales =
        sizeof kSweepHosts / sizeof kSweepHosts[0];
    std::vector<ArmResult> runs(n_scales);
    for (size_t i = 0; i < n_scales; ++i) {
        const int hosts = kSweepHosts[i];
        std::fprintf(stderr, "fleet_scale: %d hosts ...\n", hosts);
        runs[i] = runArm(hosts, false);
        all_hold = all_hold && runs[i].conservation_holds;
    }

    // --- Telemetry gating arm: same scenario, observability on vs
    // off. Off must process strictly fewer events (no SloEval /
    // publish chain) with identical step outcomes.
    std::fprintf(stderr, "fleet_scale: observability arm ...\n");
    const ArmResult obs_off = runArm(kObsArmHosts, false);
    const ArmResult obs_on = runArm(kObsArmHosts, true);
    all_hold = all_hold && obs_off.conservation_holds &&
               obs_on.conservation_holds;
    const bool gating_ok =
        obs_off.m.events_processed < obs_on.m.events_processed &&
        obs_off.m.steps_completed == obs_on.m.steps_completed;

    std::printf("{\n");
    std::printf("  \"bench\": \"fleet_scale\",\n");
    std::printf(
        "  \"scenario\": {\"vcus_per_host\": %d, \"horizon_s\": %.0f, "
        "\"tick_s\": %.2f, \"target_utilization\": %.2f, "
        "\"service_s\": %.0f, \"hard_faults_per_hour\": 0.01, "
        "\"silent_faults_per_hour\": 0.02},\n",
        kVcusPerHost, kHorizonSeconds, kTickSeconds,
        kTargetUtilization, kServiceSeconds);
    std::printf("  \"sweep\": [\n");
    for (size_t i = 0; i < n_scales; ++i) {
        const int hosts = kSweepHosts[i];
        std::printf("    {\"hosts\": %d, \"vcus\": %d,\n", hosts,
                    hosts * kVcusPerHost);
        printArm(hosts, runs[i]);
        std::printf("    }%s\n", i + 1 < n_scales ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"observability_gating\": {\n");
    std::printf("    \"hosts\": %d,\n", kObsArmHosts);
    std::printf("    \"events_obs_off\": %llu,\n",
                static_cast<unsigned long long>(
                    obs_off.m.events_processed));
    std::printf("    \"events_obs_on\": %llu,\n",
                static_cast<unsigned long long>(
                    obs_on.m.events_processed));
    std::printf("    \"wall_s_obs_off\": %.3f,\n", obs_off.wall_s);
    std::printf("    \"wall_s_obs_on\": %.3f,\n", obs_on.wall_s);
    std::printf("    \"outcomes_match_and_fewer_events\": %s\n",
                gating_ok ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"conservation_holds_all_arms\": %s\n",
                all_hold ? "true" : "false");
    std::printf("}\n");

    // The bench doubles as a smoke check: a broken ledger or broken
    // telemetry gating fails the run, not just the numbers.
    if (!all_hold) {
        std::fprintf(stderr, "conservation violated\n");
        return 1;
    }
    if (!gating_ok) {
        std::fprintf(stderr, "telemetry gating regressed\n");
        return 1;
    }
    return 0;
}
