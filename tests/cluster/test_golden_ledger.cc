/**
 * @file
 * Golden-ledger oracle for the cluster simulator: pins the exact
 * outcome of four small seeded scenarios.
 *
 * Each digest is FNV-1a over the run's ledger fingerprint (every
 * ClusterMetrics counter, the conservation snapshot and the trace
 * size), its events_processed count and the full exported trace log;
 * the router scenario digests the router export and every region's
 * trace log instead. The digests were captured before the tick engine
 * was retired. A refactor of the event core, dispatch or the step
 * type that claims to be exact must leave every one of them
 * unchanged; a change that is meant to alter the model updates them
 * and says why.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "global/global_router.h"
#include "support/ledger_fingerprint.h"
#include "workload/traffic.h"

namespace wsva::cluster {
namespace {

using wsva::testsupport::fnv1a;
using wsva::testsupport::ledgerFingerprint;
using wsva::video::codec::CodecType;

/** Enough to export every event the default trace ring holds. */
constexpr size_t kWholeTrace = size_t{1} << 20;

std::string
hex(uint64_t digest)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
    return buf;
}

/** Digest of one ClusterSim run: fingerprint, event count, trace. */
uint64_t
runDigest(const ClusterMetrics &m, const ClusterSim &sim)
{
    uint64_t h = fnv1a(ledgerFingerprint(m, sim));
    h = fnv1a(std::to_string(m.events_processed), h);
    return fnv1a(sim.traceLog().toJson(kWholeTrace), h);
}

/** Mixed MOT arrivals: every sixth step is 4K, the rest 1080p, so
 *  the fleet packs unevenly and capacity blocks the queue head. */
ArrivalFn
mixedArrivals(int per_tick)
{
    auto counter = std::make_shared<uint64_t>(0);
    return [per_tick, counter](double, double) {
        std::vector<TranscodeStep> steps;
        for (int i = 0; i < per_tick; ++i) {
            const uint64_t id = (*counter)++;
            const wsva::video::Resolution res =
                id % 6 == 0 ? wsva::video::Resolution{3840, 2160}
                            : wsva::video::Resolution{1920, 1080};
            steps.push_back(makeMotStep(id, id / 8,
                                        static_cast<int>(id % 8), res,
                                        CodecType::VP9));
        }
        return steps;
    };
}

TEST(GoldenLedger, FaultFree)
{
    ClusterConfig cfg;
    cfg.hosts = 4;
    cfg.vcus_per_host = 8;
    cfg.seed = 7;
    cfg.fleet_publish_every_ticks = 5;
    ClusterSim sim(cfg);
    const ClusterMetrics m = sim.run(120.0, 1.0, mixedArrivals(30));

    // Scenario preconditions: the queue head blocked, yet every audit
    // held.
    ASSERT_GT(m.sched_rejected, 0u);
    ASSERT_EQ(m.conservation_violations, 0u);
    EXPECT_EQ(hex(runDigest(m, sim)), "6901aed0964126ce")
        << ledgerFingerprint(m, sim);
}

TEST(GoldenLedger, HardAndSilentFaultsWithCappedRepairs)
{
    ClusterConfig cfg;
    cfg.hosts = 6;
    cfg.vcus_per_host = 5;
    cfg.hosts_per_rack = 2;
    cfg.seed = 7;
    cfg.vcu_hard_fault_per_hour = 30.0;
    cfg.vcu_silent_fault_per_hour = 15.0;
    cfg.failure.host_fault_threshold = 2;
    cfg.failure.repair_seconds = 90.0;
    cfg.failure.repair_cap = 1;
    cfg.fleet_publish_every_ticks = 5;
    ClusterSim sim(cfg);
    const ClusterMetrics m = sim.run(600.0, 1.0, mixedArrivals(4));

    ASSERT_GT(m.vcus_disabled, 0);
    ASSERT_GT(m.hosts_repaired, 0u);
    ASSERT_GT(m.corrupt_detected, 0u);
    ASSERT_EQ(m.conservation_violations, 0u);
    EXPECT_EQ(hex(runDigest(m, sim)), "6ebad6ddf9eb0781")
        << ledgerFingerprint(m, sim);
}

TEST(GoldenLedger, LiveSurgeWithShedding)
{
    ClusterConfig cfg;
    cfg.hosts = 2;
    cfg.vcus_per_host = 8;
    cfg.seed = 7;
    cfg.deadline.shed_enabled = true;
    cfg.deadline.slack_guard_seconds = 4.0;
    cfg.track_blast_radius = false;
    cfg.fleet_publish_every_ticks = 5;
    ClusterSim sim(cfg);

    wsva::workload::LiveTrafficConfig live_cfg;
    live_cfg.concurrent_streams = 0;
    live_cfg.deadline_seconds = 5.0;
    live_cfg.channels_per_second = 0.4;
    live_cfg.mean_channel_seconds = 30.0;
    live_cfg.surge_multiplier = 10.0;
    live_cfg.surge_start = 60.0;
    live_cfg.surge_end = 90.0;
    live_cfg.seed = 33;
    auto live = std::make_shared<wsva::workload::LiveTraffic>(live_cfg);
    auto batch_id = std::make_shared<uint64_t>(1000000);
    // A saturating 4K batch stream under the live channels; live
    // arrivals stop at t=100 so the shed lot releases before the end.
    const ArrivalFn arrivals = [live, batch_id](double now, double dt) {
        std::vector<TranscodeStep> steps;
        if (now < 100.0)
            steps = live->arrivals(now, dt);
        for (int i = 0; i < 3; ++i) {
            const uint64_t id = (*batch_id)++;
            auto step = makeMotStep(id, id, 0, {3840, 2160},
                                    CodecType::VP9);
            step.frames = 300;
            step.priority = Priority::Batch;
            steps.push_back(step);
        }
        return steps;
    };
    const ClusterMetrics m = sim.run(150.0, 1.0, arrivals);

    EXPECT_GT(m.steps_shed, 0u);
    EXPECT_GT(m.steps_preempted, 0u);
    ASSERT_GT(m.deadline_completions, 0u);
    ASSERT_EQ(m.conservation_violations, 0u);
    EXPECT_EQ(hex(runDigest(m, sim)), "e5a07b99eed0927e")
        << ledgerFingerprint(m, sim);
}

TEST(GoldenLedger, ThreeRegionsOneBlackHoledAndQuarantined)
{
    wsva::global::GlobalRouterConfig cfg;
    cfg.regions = 3;
    cfg.step_seconds = 4.0;
    cfg.dt = 0.5;
    cfg.cluster.hosts = 2;
    cfg.cluster.vcus_per_host = 6;
    cfg.cluster.seed = 11;
    cfg.cluster.vcu_hard_fault_per_hour = 2.0;
    // The black-hole shape: corruption is always detected and nothing
    // self-heals, so the router's health gate is the only defense.
    cfg.cluster.failure.integrity_detect_prob = 1.0;
    cfg.cluster.failure.golden_screening = false;
    cfg.cluster.failure.abort_on_failure = false;
    cfg.cluster.failure.host_fault_threshold = 1 << 30;
    cfg.health.min_quarantine_seconds = 1e9; // Never re-admit.
    wsva::global::GlobalRouter router(cfg);

    wsva::workload::UploadTrafficConfig up;
    up.uploads_per_second = 0.3;
    up.seed = 5;
    wsva::workload::RegionalUploadTraffic traffic(3, up);
    const wsva::global::RegionalArrivalFn arrivals =
        [&traffic](int region, double now, double dt) {
            return traffic.arrivals(region, now, dt);
        };
    router.runFor(20.0, arrivals);
    router.region(1).forceSilentFaults(0.4);
    router.runFor(100.0, arrivals);

    ASSERT_TRUE(router.status(1).quarantined);
    ASSERT_GT(router.status(1).expelled, 0u);
    ASSERT_EQ(router.auditViolations(), 0u);
    uint64_t h = fnv1a(router.exportJson());
    for (int r = 0; r < router.regions(); ++r)
        h = fnv1a(router.region(r).traceLog().toJson(kWholeTrace), h);
    EXPECT_EQ(hex(h), "8b5e879cf670b1b4") << router.exportJson();
}

} // namespace
} // namespace wsva::cluster
