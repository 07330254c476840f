/**
 * @file
 * Observability-overhead benchmark: runs the cluster scenario from
 * bench_cluster with span tracing + SLO monitoring enabled versus
 * disabled (the PR 2 metrics layer stays ON in both arms, so the
 * measured delta is the cost of the tracing/SLO layer alone), and
 * enforces the <= 5% enabled-overhead budget. Also reports what the
 * instrumented run recorded: span counts per category, the size of
 * the exported Chrome trace, and the SLO summary.
 *
 * A second paired arm measures the continuous-profiling layer the
 * same way: profiler fully on (phase timers + wall-clock sampler)
 * versus dark, tracing/SLO off in both so the delta is the profiler
 * alone. Same methodology, same <= 5% budget, same loud exit.
 *
 * Emits JSON on stdout (`bench/run_benches.sh` redirects it into
 * BENCH_observability.json) and exits non-zero when the overhead
 * budget is blown, so CI fails loudly instead of drifting.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/debug_server.h"
#include "common/profiler.h"
#include "common/trace.h"

using namespace wsva::cluster;
using wsva::video::codec::CodecType;

namespace {

constexpr double kHorizonSeconds = 1200.0;
constexpr double kTickSeconds = 1.0;
constexpr int kHosts = 4;
constexpr int kVcusPerHost = 20;
constexpr int kStepsPerTick = 40;
constexpr int kReps = 21; //!< Overhead measurement pairs.
constexpr double kOverheadBudgetPct = 5.0;
constexpr uint32_t kSpanSamplePeriod = 16; //!< Trace every Nth upload.

/**
 * CPU seconds consumed by this process. The sim thread does the work,
 * so this tracks the run's execution time, but unlike wall clock it
 * does not charge for preemption by noisy neighbors, which on a
 * shared machine swamps a few-percent effect.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

ClusterConfig
benchConfig(bool spans_and_slo)
{
    ClusterConfig cfg;
    cfg.hosts = kHosts;
    cfg.vcus_per_host = kVcusPerHost;
    cfg.seed = 41;
    cfg.vcu_hard_fault_per_hour = 6.0;
    cfg.vcu_silent_fault_per_hour = 6.0;
    cfg.failure.host_fault_threshold = 3;
    cfg.failure.repair_cap = 2;
    cfg.failure.repair_seconds = 300.0;
    cfg.observability = true; // Metrics on in BOTH arms.
    cfg.trace_capacity = 4096;
    cfg.tracing = spans_and_slo;
    cfg.slo.enabled = spans_and_slo;
    cfg.slo.p99_target_seconds = 120.0;
    // Production posture: Dapper-style head sampling. Tracing every
    // one of the ~48k steps costs more than the 5% budget allows;
    // every 16th upload keeps the timeline representative while the
    // SLO monitor still tracks all uploads.
    cfg.span_sample_period = kSpanSamplePeriod;
    // The enabled arm also carries the fleet-health rollup cadence
    // (and, in timedRun, a live debug server), so the budget covers
    // the whole diagnostics posture, not just spans.
    // 15 aligns with the SLO gauge decimation, so a publish reuses
    // the windowed-p99 the gauge path just materialized.
    cfg.fleet_publish_every_ticks = spans_and_slo ? 15 : 0;
    return cfg;
}

ArrivalFn
steadyArrivals()
{
    auto counter = std::make_shared<uint64_t>(0);
    return [counter](double, double) {
        std::vector<TranscodeStep> steps;
        for (int i = 0; i < kStepsPerTick; ++i) {
            const uint64_t id = (*counter)++;
            steps.push_back(makeMotStep(id, id / 8,
                                        static_cast<int>(id % 8),
                                        {1920, 1080}, CodecType::VP9));
        }
        return steps;
    };
}

double
timedRun(bool spans_and_slo)
{
    ClusterSim sim(benchConfig(spans_and_slo));
    // The enabled arm runs with the debug server up: its accept
    // thread and handler pool idle on the same process-CPU clock the
    // measurement reads, so the budget includes them.
    std::unique_ptr<wsva::DebugServer> server;
    if (spans_and_slo) {
        server = std::make_unique<wsva::DebugServer>();
        sim.attachDebugServer(*server, "bench_observability");
        server->start();
    }
    const double t0 = cpuSeconds();
    sim.run(kHorizonSeconds, kTickSeconds, steadyArrivals());
    const double elapsed = cpuSeconds() - t0;
    if (server != nullptr)
        server->stop();
    return elapsed;
}

/**
 * Profiler arm: same scenario with tracing/SLO off in both runs, so
 * the paired delta is the continuous-profiling layer alone. The
 * enabled run carries the full posture — phase timers recording on
 * the sim thread plus the wall-clock sampler thread, which bills to
 * the same process-CPU clock the measurement reads.
 */
double
profiledRun(bool profiler_on)
{
    auto &prof = wsva::prof::ProfileRegistry::instance();
    prof.stopSampler();
    prof.reset();
    prof.setEnabled(profiler_on);
    if (profiler_on)
        prof.startSampler();
    ClusterSim sim(benchConfig(false));
    const double t0 = cpuSeconds();
    sim.run(kHorizonSeconds, kTickSeconds, steadyArrivals());
    const double elapsed = cpuSeconds() - t0;
    prof.stopSampler();
    prof.setEnabled(false);
    return elapsed;
}

/**
 * Median per-pair CPU-time ratio across kReps alternating-order
 * pairs (a noisy-neighbor slowdown spanning one pair scales both of
 * its runs alike, so the ratio stays honest even when absolute times
 * sway). Each arm of a pair is
 * the min of two back-to-back runs: interference (hypervisor steal,
 * cache pollution from neighbors) only ever *adds* CPU time, so the
 * min is the standard one-sided-noise rejector — without it a single
 * stolen timeslice inside one 80 ms run skews that pair by several
 * points, which matters on the small 1-2 core runners this bench has
 * to hold a 5% budget on.
 */
void
measureOverhead(double (*run)(bool), double *enabled_s,
                double *disabled_s, double *overhead_pct)
{
    run(true); // Warm-up: page cache, allocator, branch state.
    *enabled_s = 1e30;
    *disabled_s = 1e30;
    std::vector<double> ratios;
    for (int rep = 0; rep < kReps; ++rep) {
        const bool enabled_first = rep % 2 == 0;
        double en = 1e30;
        double dis = 1e30;
        for (int pass = 0; pass < 2; ++pass) {
            const double a = run(enabled_first);
            const double b = run(!enabled_first);
            en = std::min(en, enabled_first ? a : b);
            dis = std::min(dis, enabled_first ? b : a);
        }
        *enabled_s = std::min(*enabled_s, en);
        *disabled_s = std::min(*disabled_s, dis);
        ratios.push_back(en / dis);
    }
    std::sort(ratios.begin(), ratios.end());
    *overhead_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
}

} // namespace

int
main()
{
    // --- Instrumented run: spans, SLO, z-pages, Chrome export. -----
    ClusterSim sim(benchConfig(true));
    wsva::DebugServer server;
    sim.attachDebugServer(server, "bench_observability");
    const bool server_ok = server.start();
    const ClusterMetrics m =
        sim.run(kHorizonSeconds, kTickSeconds, steadyArrivals());
    const wsva::Tracer &tracer = sim.tracer();

    std::map<std::string, uint64_t> span_counts;
    for (const auto &rec : tracer.snapshot())
        ++span_counts[rec.name];
    const std::string chrome =
        tracer.exportChromeTrace(&sim.traceLog());
    const SloMonitor &slo = sim.slo();

    // --- Overhead: identical scenario, tracing + SLO on vs off. ----
    double enabled_s = 0.0;
    double disabled_s = 0.0;
    double overhead_pct = 0.0;
    measureOverhead(timedRun, &enabled_s, &disabled_s, &overhead_pct);

    // --- Profiler overhead: same pairing, profiler on vs dark. -----
    double prof_enabled_s = 0.0;
    double prof_dark_s = 0.0;
    double prof_overhead_pct = 0.0;
    measureOverhead(profiledRun, &prof_enabled_s, &prof_dark_s,
                    &prof_overhead_pct);

    std::printf("{\n");
    std::printf("  \"bench\": \"observability\",\n");
    std::printf("  \"scenario\": {\"hosts\": %d, \"vcus_per_host\": %d, "
                "\"horizon_s\": %.0f, \"tick_s\": %.2f, "
                "\"steps_per_tick\": %d, \"span_sample_period\": %u, "
                "\"metrics_in_both_arms\": true},\n",
                kHosts, kVcusPerHost, kHorizonSeconds, kTickSeconds,
                kStepsPerTick, kSpanSamplePeriod);
    std::printf("  \"results\": {\n");
    std::printf("    \"steps_completed\": %llu,\n",
                static_cast<unsigned long long>(m.steps_completed));
    std::printf("    \"encoder_utilization\": %.4f\n",
                m.encoder_utilization);
    std::printf("  },\n");
    std::printf("  \"spans\": {\n");
    std::printf("    \"recorded\": %llu,\n",
                static_cast<unsigned long long>(tracer.recorded()));
    std::printf("    \"retained\": %zu,\n", tracer.size());
    std::printf("    \"dropped\": %llu,\n",
                static_cast<unsigned long long>(tracer.dropped()));
    std::printf("    \"chrome_trace_bytes\": %zu,\n", chrome.size());
    std::printf("    \"by_name\": {");
    bool first = true;
    for (const auto &[name, count] : span_counts) {
        std::printf("%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
                    static_cast<unsigned long long>(count));
        first = false;
    }
    std::printf("}\n");
    std::printf("  },\n");
    std::printf("  \"slo\": %s,\n", slo.exportJson(kHorizonSeconds).c_str());
    std::printf("  \"debug_server\": {\"running\": %s, \"port\": %u, "
                "\"requests_served\": %llu, "
                "\"fleet_publishes\": %llu},\n",
                server_ok ? "true" : "false", server.port(),
                static_cast<unsigned long long>(
                    server.requestsServed()),
                static_cast<unsigned long long>(
                    sim.fleetHealth().publishes()));
    std::printf("  \"overhead\": {\n");
    std::printf("    \"enabled_cpu_ms\": %.3f,\n", enabled_s * 1e3);
    std::printf("    \"disabled_cpu_ms\": %.3f,\n", disabled_s * 1e3);
    std::printf("    \"overhead_pct\": %.2f,\n", overhead_pct);
    std::printf("    \"budget_pct\": %.1f,\n", kOverheadBudgetPct);
    std::printf("    \"within_budget\": %s\n",
                overhead_pct <= kOverheadBudgetPct ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"profiler_overhead\": {\n");
    std::printf("    \"enabled_cpu_ms\": %.3f,\n", prof_enabled_s * 1e3);
    std::printf("    \"dark_cpu_ms\": %.3f,\n", prof_dark_s * 1e3);
    std::printf("    \"overhead_pct\": %.2f,\n", prof_overhead_pct);
    std::printf("    \"budget_pct\": %.1f,\n", kOverheadBudgetPct);
    std::printf("    \"within_budget\": %s\n",
                prof_overhead_pct <= kOverheadBudgetPct ? "true"
                                                        : "false");
    std::printf("  }\n");
    std::printf("}\n");

    if (overhead_pct > kOverheadBudgetPct) {
        std::fprintf(stderr,
                     "observability overhead %.2f%% exceeds %.1f%% budget\n",
                     overhead_pct, kOverheadBudgetPct);
        return 1;
    }
    if (prof_overhead_pct > kOverheadBudgetPct) {
        std::fprintf(stderr,
                     "profiler overhead %.2f%% exceeds %.1f%% budget\n",
                     prof_overhead_pct, kOverheadBudgetPct);
        return 1;
    }
    if (tracer.recorded() == 0) {
        std::fprintf(stderr, "instrumented run recorded no spans\n");
        return 1;
    }
    return 0;
}
