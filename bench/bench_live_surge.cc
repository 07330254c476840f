/**
 * @file
 * Live flash-crowd bench: a 1,000-host / 20,000-VCU fleet (event
 * engine) saturated with batch transcode work takes a 10x surge of
 * deadline-carrying live channels, and the deadline scheduler must
 * degrade gracefully — shed and preempt batch work so the live
 * deadline-miss rate stays under the SLO budget — while the shed-
 * extended step-conservation ledger keeps balancing.
 *
 * Three arms:
 *   baseline      steady live churn, no surge, shedding on;
 *   surge_shed    10x flash crowd in [60 s, 90 s), shedding on;
 *   surge_noshed  the same flash crowd with shedding disabled.
 *
 * The batch background models long-form archival re-encodes: 4K
 * two-pass MOT chunks of 200-400 s of video (~9,500 encode
 * millicores — VCU-sized — and 104-208 s of service). The fleet is
 * prefilled with a full complement plus backlog, so during the surge
 * window no worker drains naturally: a live 4K single-pass segment
 * (~9,180 millicores) only runs if batch work is preempted for it.
 * With shedding on, live segments displace batch inside the slack
 * guard and meet their 5 s deadlines through the whole flash crowd;
 * with shedding off they queue behind minutes of batch service and
 * the live SLO collapses — the contrast the acceptance gate checks.
 *
 * Emits JSON on stdout (`bench/run_benches.sh` redirects it into
 * BENCH_live_surge.json) and exits non-zero when an invariant fails:
 * a conservation violation, a shed-arm miss rate over budget, or a
 * no-shed arm that fails to demonstrate the violation.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "workload/traffic.h"

using namespace wsva::cluster;
using wsva::video::codec::CodecType;

namespace {

constexpr int kHosts = 1000;
constexpr int kVcusPerHost = 20;
constexpr double kHorizonSeconds = 150.0;
constexpr double kTickSeconds = 0.5;

// Batch background: the fleet is prefilled with one VCU-sized step
// per worker plus a standing backlog, then trickled at roughly the
// drain rate. Services are staggered across 104-208 s (frames
// 6000-11999), so the first natural drain lands at ~104 s — after
// the flash crowd has already peaked.
constexpr int kBatchPrefill = 21000;
constexpr double kBatchPerSecond = 200.0;
constexpr int kBatchFramesBase = 6000;  //!< 200 s chunks, ~104 s svc.
constexpr int kBatchFramesSpread = 6000;

// Live churn: ~300 steady channels (5/s x 60 s mean lifetime), one
// 2 s segment each per 2 s, with a 5 s per-segment deadline. The
// flash crowd multiplies the channel start rate 10x for 30 s,
// peaking near 1,600 active channels (~800 segments/s).
constexpr double kChannelsPerSecond = 5.0;
constexpr double kMeanChannelSeconds = 60.0;
constexpr double kSegmentSeconds = 2.0;
constexpr double kDeadlineSeconds = 5.0;
constexpr double kSurgeMultiplier = 10.0;
constexpr double kSurgeStart = 60.0;
constexpr double kSurgeEnd = 90.0;

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

/** Batch arrivals: one prefill burst, then a steady trickle. */
ArrivalFn
batchArrivals(std::shared_ptr<wsva::workload::LiveTraffic> live,
              double batch_per_tick)
{
    auto counter = std::make_shared<uint64_t>(0);
    auto carry = std::make_shared<double>(0.0);
    return [live, batch_per_tick, counter, carry](double now,
                                                  double dt) {
        auto steps = live->arrivals(now, dt);
        int n;
        if (*counter == 0) {
            n = kBatchPrefill;
        } else {
            *carry += batch_per_tick;
            n = static_cast<int>(*carry);
            *carry -= n;
        }
        for (int i = 0; i < n; ++i) {
            const uint64_t id = 1000000000ull + (*counter)++;
            TranscodeStep step =
                makeMotStep(id, id / 8, static_cast<int>(id % 8),
                            {3840, 2160}, CodecType::VP9);
            // Stagger service across ~104-208 s so drains spread out
            // instead of landing in one synchronized wave.
            step.frames = kBatchFramesBase +
                          static_cast<int>(id % kBatchFramesSpread);
            step.priority = Priority::Batch;
            steps.push_back(step);
        }
        return steps;
    };
}

wsva::workload::LiveTrafficConfig
liveConfig(bool surge)
{
    wsva::workload::LiveTrafficConfig live;
    live.concurrent_streams = 0;
    live.resolution = {3840, 2160}; // Premium 4K live channels.
    live.segment_seconds = kSegmentSeconds;
    live.deadline_seconds = kDeadlineSeconds;
    live.channels_per_second = kChannelsPerSecond;
    live.mean_channel_seconds = kMeanChannelSeconds;
    live.surge_multiplier = surge ? kSurgeMultiplier : 1.0;
    live.surge_start = kSurgeStart;
    live.surge_end = kSurgeEnd;
    live.seed = 1234;
    return live;
}

struct ArmResult
{
    ClusterMetrics m;
    ConservationSnapshot snap;
    bool conservation_holds = false;
    double miss_rate = 0.0;
    double window_miss_rate = 0.0;
    double live_p99 = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

ArmResult
runArm(bool surge, bool shed)
{
    ClusterConfig cfg;
    cfg.hosts = kHosts;
    cfg.vcus_per_host = kVcusPerHost;
    cfg.seed = 99;
    cfg.deadline.shed_enabled = shed;
    // Proactive guard: a 5 s deadline with ~1 s of service leaves
    // 4 s of slack at arrival, so a live segment that cannot be
    // placed on its first pick sheds immediately instead of waiting
    // out its slack in the queue (keeps live latency flat through
    // the surge).
    cfg.deadline.slack_guard_seconds = 4.0;
    cfg.slo.p99_target_seconds = 30.0;
    cfg.track_blast_radius = false;

    ClusterSim sim(cfg);
    auto live = std::make_shared<wsva::workload::LiveTraffic>(
        liveConfig(surge));

    ArmResult r;
    const double w0 = wallSeconds();
    const double c0 = cpuSeconds();
    r.m = sim.run(kHorizonSeconds, kTickSeconds,
                  batchArrivals(live, kBatchPerSecond * kTickSeconds));
    r.wall_s = wallSeconds() - w0;
    r.cpu_s = cpuSeconds() - c0;
    r.snap = sim.conservation();
    r.conservation_holds =
        r.snap.holds() && r.m.conservation_violations == 0;
    r.miss_rate = sim.slo().deadlineMissRate();
    r.window_miss_rate = sim.slo().windowDeadlineMissRate();
    r.live_p99 = sim.slo().liveQuantile(0.99);
    return r;
}

void
printArm(const char *key, const ArmResult &r, bool last)
{
    std::printf(
        "    \"%s\": {\"wall_s\": %.3f, \"cpu_s\": %.3f, "
        "\"steps_submitted\": %llu, \"steps_completed\": %llu, "
        "\"events_processed\": %llu,\n"
        "      \"live_completions\": %llu, \"deadline_misses\": %llu, "
        "\"deadline_miss_rate\": %.6g, "
        "\"window_deadline_miss_rate\": %.6g, \"live_p99_s\": %.3f,\n"
        "      \"steps_shed\": %llu, \"steps_preempted\": %llu, "
        "\"shed_remaining\": %llu, \"backlog_remaining\": %llu,\n"
        "      \"conservation\": {\"submitted\": %llu, "
        "\"completed\": %llu, \"failed_terminal\": %llu, "
        "\"in_flight\": %llu, \"backlog\": %llu, \"shed\": %llu, "
        "\"holds\": %s}}%s\n",
        key, r.wall_s, r.cpu_s,
        static_cast<unsigned long long>(r.m.steps_submitted),
        static_cast<unsigned long long>(r.m.steps_completed),
        static_cast<unsigned long long>(r.m.events_processed),
        static_cast<unsigned long long>(r.m.deadline_completions),
        static_cast<unsigned long long>(r.m.deadline_misses),
        r.miss_rate, r.window_miss_rate, r.live_p99,
        static_cast<unsigned long long>(r.m.steps_shed),
        static_cast<unsigned long long>(r.m.steps_preempted),
        static_cast<unsigned long long>(r.m.shed_remaining),
        static_cast<unsigned long long>(r.m.backlog_remaining),
        static_cast<unsigned long long>(r.snap.submitted),
        static_cast<unsigned long long>(r.snap.completed),
        static_cast<unsigned long long>(r.snap.failed_terminal),
        static_cast<unsigned long long>(r.snap.in_flight),
        static_cast<unsigned long long>(r.snap.backlog),
        static_cast<unsigned long long>(r.snap.shed),
        r.conservation_holds ? "true" : "false", last ? "" : ",");
}

} // namespace

int
main()
{
    const double budget = SloConfig{}.deadline_miss_budget;

    std::fprintf(stderr, "live_surge: baseline arm ...\n");
    const ArmResult baseline = runArm(false, true);
    std::fprintf(stderr, "live_surge: surge + shedding arm ...\n");
    const ArmResult shed = runArm(true, true);
    std::fprintf(stderr, "live_surge: surge, shedding off ...\n");
    const ArmResult noshed = runArm(true, false);

    const bool all_hold = baseline.conservation_holds &&
                          shed.conservation_holds &&
                          noshed.conservation_holds;
    const bool shed_under_budget =
        shed.m.deadline_completions > 0 && shed.miss_rate <= budget;
    const bool noshed_over_budget = noshed.miss_rate > budget;
    // Graceful degradation: the surge must not stretch the live p99
    // by more than 10% over the calm baseline when shedding is on.
    const bool p99_stable =
        baseline.live_p99 > 0.0 &&
        shed.live_p99 <= 1.10 * baseline.live_p99;

    std::printf("{\n");
    std::printf("  \"bench\": \"live_surge\",\n");
    std::printf(
        "  \"scenario\": {\"hosts\": %d, \"vcus\": %d, "
        "\"engine\": \"event\", \"horizon_s\": %.0f, \"tick_s\": %.2f,\n"
        "    \"batch_prefill\": %d, \"batch_per_s\": %.0f, "
        "\"batch_frames\": [%d, %d], "
        "\"channels_per_s\": %.1f, \"mean_channel_s\": %.0f, "
        "\"segment_s\": %.1f, \"deadline_s\": %.1f,\n"
        "    \"surge_multiplier\": %.0f, \"surge_start_s\": %.0f, "
        "\"surge_end_s\": %.0f, \"deadline_miss_budget\": %.4g},\n",
        kHosts, kHosts * kVcusPerHost, kHorizonSeconds, kTickSeconds,
        kBatchPrefill, kBatchPerSecond, kBatchFramesBase,
        kBatchFramesBase + kBatchFramesSpread - 1, kChannelsPerSecond,
        kMeanChannelSeconds, kSegmentSeconds, kDeadlineSeconds,
        kSurgeMultiplier, kSurgeStart, kSurgeEnd, budget);
    std::printf("  \"arms\": {\n");
    printArm("baseline", baseline, false);
    printArm("surge_shed", shed, false);
    printArm("surge_noshed", noshed, true);
    std::printf("  },\n");
    std::printf("  \"acceptance\": {\n");
    std::printf("    \"budget\": %.4g,\n", budget);
    std::printf("    \"shed_miss_rate\": %.6g,\n", shed.miss_rate);
    std::printf("    \"noshed_miss_rate\": %.6g,\n", noshed.miss_rate);
    std::printf("    \"shed_under_budget\": %s,\n",
                shed_under_budget ? "true" : "false");
    std::printf("    \"noshed_over_budget\": %s,\n",
                noshed_over_budget ? "true" : "false");
    std::printf("    \"live_p99_baseline_s\": %.3f,\n",
                baseline.live_p99);
    std::printf("    \"live_p99_shed_s\": %.3f,\n", shed.live_p99);
    std::printf("    \"live_p99_stable\": %s\n",
                p99_stable ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"conservation_holds_all_arms\": %s\n",
                all_hold ? "true" : "false");
    std::printf("}\n");

    if (!all_hold) {
        std::fprintf(stderr, "conservation violated\n");
        return 1;
    }
    if (!shed_under_budget || !noshed_over_budget || !p99_stable) {
        std::fprintf(stderr,
                     "live SLO acceptance failed: shed %.4f (budget "
                     "%.4f), noshed %.4f, p99 %.2f vs %.2f\n",
                     shed.miss_rate, budget, noshed.miss_rate,
                     shed.live_p99, baseline.live_p99);
        return 1;
    }
    return 0;
}
