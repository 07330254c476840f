/**
 * @file
 * Cluster-simulation benchmark: runs a mid-size VCU cluster under the
 * paper's combined failure model (hard faults + silent faults + capped
 * host repair) with the observability layer on, and reports
 * utilization / retry / quarantine time-series and the
 * step-conservation ledger. The observability overhead budget is
 * measured and gated by bench_observability.
 *
 * Emits JSON on stdout (`bench/run_benches.sh` redirects it into
 * BENCH_cluster.json).
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.h"

using namespace wsva::cluster;
using namespace wsva::bench::steady;

namespace {

/** Print a series as [[t, v], ...], thinned to at most 100 points so
 *  the in-tree BENCH file stays small. */
void
printSeries(const wsva::MetricsRegistry &reg, const char *name,
            const char *json_key, bool last)
{
    const auto points = reg.seriesSnapshot(name);
    const size_t stride = std::max<size_t>(1, points.size() / 100);
    std::printf("    \"%s\": [", json_key);
    bool first = true;
    for (size_t i = 0; i < points.size(); i += stride) {
        std::printf("%s[%.6g, %.6g]", first ? "" : ", ",
                    points[i].first, points[i].second);
        first = false;
    }
    std::printf("]%s\n", last ? "" : ",");
}

} // namespace

int
main()
{
    // --- Instrumented run: metrics, traces, conservation. ----------
    ClusterSim sim(config());
    const ClusterMetrics m =
        sim.run(kHorizonSeconds, kTickSeconds, arrivals());
    const ConservationSnapshot snap = sim.conservation();
    const auto &reg = sim.metricsRegistry();

    std::printf("{\n");
    std::printf("  \"bench\": \"cluster\",\n");
    std::printf("  \"scenario\": {\"hosts\": %d, \"vcus_per_host\": %d, "
                "\"horizon_s\": %.0f, \"tick_s\": %.2f, "
                "\"steps_per_tick\": %d, \"hard_faults_per_hour\": 6.0, "
                "\"silent_faults_per_hour\": 6.0, \"repair_cap\": 2},\n",
                kHosts, kVcusPerHost, kHorizonSeconds, kTickSeconds,
                kStepsPerTick);
    std::printf("  \"results\": {\n");
    std::printf("    \"steps_submitted\": %llu,\n",
                static_cast<unsigned long long>(m.steps_submitted));
    std::printf("    \"steps_completed\": %llu,\n",
                static_cast<unsigned long long>(m.steps_completed));
    std::printf("    \"steps_retried\": %llu,\n",
                static_cast<unsigned long long>(m.steps_retried));
    std::printf("    \"steps_in_flight\": %zu,\n", m.steps_in_flight);
    std::printf("    \"backlog_remaining\": %zu,\n", m.backlog_remaining);
    std::printf("    \"vcus_disabled\": %d,\n", m.vcus_disabled);
    std::printf("    \"workers_quarantined\": %d,\n",
                m.workers_quarantined);
    std::printf("    \"hosts_repaired\": %llu,\n",
                static_cast<unsigned long long>(m.hosts_repaired));
    std::printf("    \"corrupt_detected\": %llu,\n",
                static_cast<unsigned long long>(m.corrupt_detected));
    std::printf("    \"corrupt_escaped\": %llu,\n",
                static_cast<unsigned long long>(m.corrupt_escaped));
    std::printf("    \"encoder_utilization\": %.4f,\n",
                m.encoder_utilization);
    std::printf("    \"mpix_per_vcu\": %.2f\n", m.mpix_per_vcu);
    std::printf("  },\n");
    std::printf("  \"conservation\": {\n");
    std::printf("    \"submitted\": %llu,\n",
                static_cast<unsigned long long>(snap.submitted));
    std::printf("    \"completed\": %llu,\n",
                static_cast<unsigned long long>(snap.completed));
    std::printf("    \"failed_terminal\": %llu,\n",
                static_cast<unsigned long long>(snap.failed_terminal));
    std::printf("    \"in_flight\": %zu,\n", snap.in_flight);
    std::printf("    \"backlog\": %zu,\n", snap.backlog);
    std::printf("    \"holds\": %s,\n", snap.holds() ? "true" : "false");
    std::printf("    \"checks\": %llu,\n",
                static_cast<unsigned long long>(m.conservation_checks));
    std::printf("    \"violations\": %llu\n",
                static_cast<unsigned long long>(
                    m.conservation_violations));
    std::printf("  },\n");
    std::printf("  \"series\": {\n");
    printSeries(reg, "util.encoder", "encoder_utilization", false);
    printSeries(reg, "backlog", "backlog", false);
    printSeries(reg, "in_flight", "in_flight", false);
    printSeries(reg, "steps_retried", "steps_retried", false);
    printSeries(reg, "workers_quarantined", "workers_quarantined", false);
    printSeries(reg, "hosts_in_repair", "hosts_in_repair", true);
    std::printf("  }\n");
    std::printf("}\n");

    // The bench doubles as a smoke check: a broken ledger fails the
    // run, not just the numbers.
    if (!snap.holds() || m.conservation_violations != 0) {
        std::fprintf(stderr, "conservation violated\n");
        return 1;
    }
    return 0;
}
