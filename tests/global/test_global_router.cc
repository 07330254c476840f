/**
 * @file
 * GlobalRouter suite: locality routing, the cross-region conservation
 * ledger, black-hole quarantine with reroute, retry-amplification
 * accounting, and deterministic exports.
 */

#include "global/global_router.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/work.h"
#include "workload/traffic.h"

namespace wsva::global {
namespace {

using wsva::cluster::ClusterConfig;
using wsva::cluster::TranscodeStep;
using wsva::cluster::makeMotStep;
using wsva::video::codec::CodecType;
using wsva::workload::RegionalUploadTraffic;
using wsva::workload::UploadTrafficConfig;

/** Two regions of 2 hosts x 8 VCUs, fault-free. */
GlobalRouterConfig
twoRegionConfig()
{
    GlobalRouterConfig cfg;
    cfg.regions = 2;
    cfg.cluster.hosts = 2;
    cfg.cluster.vcus_per_host = 8;
    cfg.cluster.seed = 11;
    return cfg;
}

/** The black-hole failure shape (Section 4.4): corruption is always
 *  detected (so every bad completion retries), but nothing self-heals
 *  — no screening, no abort, a fault threshold never reached. The
 *  router's health gate is the only defense, which is the point. */
void
configureBlackHole(ClusterConfig &cluster)
{
    cluster.failure.integrity_detect_prob = 1.0;
    cluster.failure.golden_screening = false;
    cluster.failure.abort_on_failure = false;
    cluster.failure.host_fault_threshold = 1 << 30;
}

UploadTrafficConfig
lightUploads(uint64_t seed)
{
    UploadTrafficConfig traffic;
    traffic.uploads_per_second = 0.2;
    traffic.seed = seed;
    return traffic;
}

RegionalArrivalFn
regionalFn(RegionalUploadTraffic &traffic)
{
    return [&traffic](int region, double now, double dt) {
        return traffic.arrivals(region, now, dt);
    };
}

/** A burst of MOT steps tagged as originating in region 0. */
std::vector<TranscodeStep>
regionZeroBurst(int count)
{
    std::vector<TranscodeStep> steps;
    for (int i = 0; i < count; ++i) {
        TranscodeStep step =
            makeMotStep(1000 + static_cast<uint64_t>(i),
                        500 + static_cast<uint64_t>(i), 0, {1280, 720},
                        CodecType::H264);
        step.origin_region = 0;
        steps.push_back(step);
    }
    return steps;
}

// ---- Satellite 2: attempt accounting, hand-computed -------------

TEST(GlobalRouter, RetryAmplificationHandComputed)
{
    // A 3-attempt reroute story: the step runs twice on a black-holed
    // region (2 retries), is rerouted, and completes on attempt 3.
    // Executed attempts = completions + retries = 1 + 2 = 3, so
    // amplification must read exactly 3.0 — the reroute hop itself is
    // not an executed attempt and must not inflate it.
    RegionStatus st;
    st.retries = 2;
    st.completions = 1;
    EXPECT_DOUBLE_EQ(st.retryAmplification(), 3.0);

    // No completions yet: amplification is undefined, reads 0 (not a
    // division crash, not infinity leaking into gauges).
    RegionStatus stalled;
    stalled.retries = 7;
    EXPECT_DOUBLE_EQ(stalled.retryAmplification(), 0.0);
}

TEST(GlobalRouter, GlobalLedgerArithmetic)
{
    GlobalConservation g;
    g.submitted = 10;
    g.completed = 4;
    g.in_flight = 2;
    g.backlog = 1;
    g.shed = 1;
    g.pending = 2;
    EXPECT_TRUE(g.holds());
    g.pending = 3; // One step counted twice would break the ledger.
    EXPECT_FALSE(g.holds());
}

// ---- Routing ----------------------------------------------------

TEST(GlobalRouter, LocalityRoutesToOriginWhenHealthy)
{
    GlobalRouterConfig cfg = twoRegionConfig();
    // Whole videos arrive as one burst of chunks, so the admission
    // signal can spike past a tight spill threshold even on a lightly
    // loaded fleet. This test pins locality, not spill: disable it.
    cfg.spill_load_factor = 1e9;
    GlobalRouter router(cfg);
    RegionalUploadTraffic traffic(2, lightUploads(17));
    router.runFor(120.0, regionalFn(traffic));

    // Healthy, lightly loaded fleet: every step stays in its origin
    // region; nothing spills, nothing reroutes.
    EXPECT_EQ(router.reroutedTotal(), 0u);
    EXPECT_GT(router.status(0).routed, 0u);
    EXPECT_GT(router.status(1).routed, 0u);
    EXPECT_EQ(router.status(0).rerouted_in, 0u);
    EXPECT_EQ(router.status(1).rerouted_in, 0u);
    EXPECT_EQ(router.status(0).routed + router.status(1).routed,
              router.submittedTotal());
    EXPECT_EQ(router.auditViolations(), 0u);
    EXPECT_EQ(router.routableRegions(), 2);
}

// ---- Satellite 4: fault-free global ledger equality -------------

TEST(GlobalRouter, FaultFreeTwoRegionLedgerMatchesOneRegion)
{
    // The same offered load, once through the 2-region router and
    // once into a single cluster with the combined capacity: after a
    // full drain both ledgers must close completely — every generated
    // step submitted, every submitted step completed, zero audit
    // violations. Router cadence = sim tick so the arrival windows
    // are identical on both arms.
    GlobalRouterConfig cfg = twoRegionConfig();
    cfg.step_seconds = 1.0;
    cfg.dt = 1.0;
    GlobalRouter router(cfg);
    RegionalUploadTraffic router_traffic(2, lightUploads(23));
    router.runFor(120.0, regionalFn(router_traffic));
    for (int i = 0;
         i < 20 && router.completedTotal() < router.submittedTotal();
         ++i)
        router.runFor(60.0);

    ClusterConfig single_cfg = cfg.cluster;
    single_cfg.hosts = cfg.cluster.hosts * 2; // Combined capacity.
    wsva::cluster::ClusterSim single(single_cfg);
    RegionalUploadTraffic single_traffic(2, lightUploads(23));
    const auto combined = [&single_traffic](double now, double dt) {
        auto steps = single_traffic.arrivals(0, now, dt);
        auto more = single_traffic.arrivals(1, now, dt);
        steps.insert(steps.end(), more.begin(), more.end());
        return steps;
    };
    single.run(120.0, 1.0, combined);
    for (int i = 0; i < 20 && single.conservation().completed <
                                  single.conservation().submitted;
         ++i)
        single.run(60.0, 1.0);

    // Same windows, same seeds: both arms saw the same offered load.
    ASSERT_EQ(router_traffic.stepsGenerated(),
              single_traffic.stepsGenerated());

    // Router arm: everything generated was submitted and completed.
    EXPECT_EQ(router.submittedTotal(), router_traffic.stepsGenerated());
    EXPECT_EQ(router.completedTotal(), router.submittedTotal());
    const GlobalConservation g = router.conservation();
    EXPECT_TRUE(g.holds());
    EXPECT_EQ(g.pending, 0u);
    EXPECT_EQ(router.auditViolations(), 0u);
    EXPECT_DOUBLE_EQ(router.availability(), 1.0);
    EXPECT_DOUBLE_EQ(router.retryAmplification(), 1.0);

    // Single arm closes to the same totals.
    const auto snap = single.conservation();
    EXPECT_TRUE(snap.holds());
    EXPECT_EQ(snap.submitted, single_traffic.stepsGenerated());
    EXPECT_EQ(snap.completed, snap.submitted);
    EXPECT_EQ(router.completedTotal(), snap.completed);
}

// ---- Black-hole quarantine --------------------------------------

TEST(GlobalRouter, BlackHoleQuarantineReroutesEverything)
{
    // Region 0 black-holes before any work runs; a burst of 100 steps
    // originates there. The gate must quarantine region 0, expel and
    // reroute all 100 into region 1, and every step must complete —
    // with attempt accounting that a hand computation reproduces.
    GlobalRouterConfig cfg = twoRegionConfig();
    configureBlackHole(cfg.cluster);
    cfg.health.min_window_attempts = 1;
    cfg.health.min_quarantine_seconds = 1e9; // Never re-admit.
    // No load spill: all 100 steps must land in region 0 first so
    // the only way out is the quarantine expel.
    cfg.spill_load_factor = 1e9;
    GlobalRouter router(cfg);

    router.region(0).forceSilentFaults(0.4);
    for (const auto &step : regionZeroBurst(100))
        router.submit(step);
    for (int i = 0; i < 50 && router.completedTotal() < 100; ++i)
        router.runFor(4.0);

    ASSERT_EQ(router.completedTotal(), 100u);
    EXPECT_DOUBLE_EQ(router.availability(), 1.0);
    EXPECT_EQ(router.auditViolations(), 0u);

    const RegionStatus &st0 = router.status(0);
    const RegionStatus &st1 = router.status(1);
    EXPECT_TRUE(st0.quarantined);
    EXPECT_EQ(st0.quarantine_entries, 1u);
    EXPECT_EQ(router.routableRegions(), 1);

    // Region 0 never completed anything (every completion there was
    // corrupt and detected); each attempt it did execute is a retry.
    EXPECT_EQ(st0.completions, 0u);
    EXPECT_GE(st0.retries, 1u);
    // All 100 steps left region 0 exactly once and entered region 1
    // exactly once.
    EXPECT_EQ(st0.expelled, 100u);
    EXPECT_EQ(st1.rerouted_in, 100u);
    EXPECT_EQ(router.reroutedTotal(), 100u);
    // Region 1 is healthy: completions with zero retries.
    EXPECT_EQ(st1.completions, 100u);
    EXPECT_EQ(st1.retries, 0u);

    // Hand-computed amplification: (c0 + r0 + c1 + r1) / (c0 + c1)
    // = (r0 + 100) / 100. The reroute hop adds nothing.
    EXPECT_DOUBLE_EQ(router.retryAmplification(),
                     1.0 + static_cast<double>(st0.retries) / 100.0);

    // No double-count through the reroute: the per-host lifetime
    // retry counters feeding the fleet rollup sum to exactly the
    // per-attempt counts the router accumulated.
    const auto fleet0 = router.region(0).buildFleetHealth(router.now());
    const auto fleet1 = router.region(1).buildFleetHealth(router.now());
    EXPECT_EQ(fleet0.retries, st0.retries);
    EXPECT_EQ(fleet0.completions, 0u);
    EXPECT_EQ(fleet1.retries, 0u);
    EXPECT_EQ(fleet1.completions, 100u);

    // The quarantined region drained: dispatch is paused, its backlog
    // was expelled, and its own ledger balances via rerouted_away.
    const auto snap0 = router.region(0).conservation();
    EXPECT_EQ(snap0.in_flight, 0u);
    EXPECT_EQ(snap0.backlog, 0u);
    EXPECT_EQ(snap0.rerouted_away, 100u);
    EXPECT_TRUE(snap0.holds());
    EXPECT_TRUE(router.region(0).dispatchPaused());
}

TEST(GlobalRouter, GatingImprovesAvailabilityUnderBlackHole)
{
    // The bench's ablation, at test scale: identical seeds and load,
    // region 0 black-holes mid-run; the only difference is whether
    // the router acts on its health gates. Gating must win on both
    // availability and amplification, and the ledger must hold in
    // both arms.
    struct Arm
    {
        double availability = 0.0;
        double amplification = 0.0;
        uint64_t violations = 0;
        uint64_t entries = 0;
    };
    const auto run_arm = [](bool gating) {
        GlobalRouterConfig cfg = twoRegionConfig();
        configureBlackHole(cfg.cluster);
        cfg.health_gating = gating;
        GlobalRouter router(cfg);
        RegionalUploadTraffic traffic(2, lightUploads(31));
        const auto arrivals = regionalFn(traffic);
        router.runFor(60.0, arrivals);
        router.region(0).forceSilentFaults(0.4);
        router.runFor(240.0, arrivals);
        Arm arm;
        arm.availability = router.availability();
        arm.amplification = router.retryAmplification();
        arm.violations = router.auditViolations();
        arm.entries = router.status(0).quarantine_entries;
        return arm;
    };

    const Arm on = run_arm(true);
    const Arm off = run_arm(false);

    // Both arms' gates saw the same signal and tripped; only the
    // gated arm acted on it.
    EXPECT_GE(on.entries, 1u);
    EXPECT_GE(off.entries, 1u);

    EXPECT_GT(on.availability, off.availability);
    EXPECT_LT(on.amplification, off.amplification);
    EXPECT_EQ(on.violations, 0u);
    EXPECT_EQ(off.violations, 0u);
}

TEST(GlobalRouter, PendingWhenAllRegionsQuarantined)
{
    // A single-region fleet whose only region black-holes: once it is
    // quarantined nothing is routable, so expelled and fresh steps
    // park in the router's pending bucket — counted by the ledger,
    // not dropped.
    GlobalRouterConfig cfg = twoRegionConfig();
    cfg.regions = 1;
    configureBlackHole(cfg.cluster);
    cfg.health.min_window_attempts = 1;
    cfg.health.min_quarantine_seconds = 1e9;
    GlobalRouter router(cfg);

    router.region(0).forceSilentFaults(0.4);
    for (const auto &step : regionZeroBurst(50))
        router.submit(step);
    router.runFor(40.0);

    EXPECT_EQ(router.routableRegions(), 0);
    EXPECT_EQ(router.completedTotal(), 0u);
    EXPECT_GT(router.pendingSteps(), 0u);

    // A fresh arrival with nowhere to go parks immediately.
    const size_t before = router.pendingSteps();
    TranscodeStep straggler =
        makeMotStep(9999, 9999, 0, {1280, 720}, CodecType::H264);
    straggler.origin_region = 0;
    router.submit(straggler);
    EXPECT_EQ(router.pendingSteps(), before + 1);

    const GlobalConservation g = router.conservation();
    EXPECT_TRUE(g.holds());
    EXPECT_EQ(g.submitted, 51u);
    EXPECT_GT(g.pending, 0u);
    EXPECT_EQ(router.auditViolations(), 0u);
}

// ---- Exports ----------------------------------------------------

TEST(GlobalRouter, DeterministicExports)
{
    const auto run_router = [] {
        GlobalRouterConfig cfg = twoRegionConfig();
        GlobalRouter router(cfg);
        RegionalUploadTraffic traffic(2, lightUploads(41));
        router.runFor(60.0, regionalFn(traffic));
        return router.exportJson();
    };
    const std::string a = run_router();
    const std::string b = run_router();
    EXPECT_EQ(a, b);

    // The export carries the tree-wide schema version, defined in
    // exactly one place (satellite: schema bump hygiene).
    const std::string tag =
        "\"schema_version\": " +
        std::to_string(
            wsva::cluster::ClusterSim::kExportSchemaVersion);
    EXPECT_NE(a.find(tag), std::string::npos);
    EXPECT_NE(a.find("\"schema_version\": 5"), std::string::npos);
    EXPECT_NE(a.find("\"rerouted_away\""), std::string::npos);
    EXPECT_NE(a.find("\"conservation\""), std::string::npos);
}

TEST(GlobalRouter, StatusTextShowsRegionTable)
{
    GlobalRouterConfig cfg = twoRegionConfig();
    GlobalRouter router(cfg);
    RegionalUploadTraffic traffic(2, lightUploads(43));
    router.runFor(20.0, regionalFn(traffic));
    const std::string text = router.statusText();
    EXPECT_NE(text.find("region 0"), std::string::npos);
    EXPECT_NE(text.find("region 1"), std::string::npos);
    EXPECT_NE(text.find("ledger: holds"), std::string::npos);
}

} // namespace
} // namespace wsva::global
