/**
 * @file
 * GlobalRouter suite: locality routing, the cross-region conservation
 * ledger, black-hole quarantine with reroute, retry-amplification
 * accounting, deterministic exports, and z-pages scraped while the
 * routing ring changes.
 */

#include "global/global_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cluster/consistent_hash.h"
#include "cluster/work.h"
#include "common/debug_server.h"
#include "support/http_client.h"
#include "support/ledger_fingerprint.h"
#include "support/mini_json.h"
#include "workload/traffic.h"

namespace wsva::global {
namespace {

using wsva::cluster::ClusterConfig;
using wsva::cluster::ClusterSim;
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

TEST(GlobalRouter, SpillOrderFollowsTheRing)
{
    // Pins pickRegion's candidate order: the preferred region, then
    // the ring walk for the video id. The first candidate at or under
    // spill_load_factor wins; when all are over, the least loaded
    // wins, ties going to the first in ring order. One VCU per region
    // makes the load signal the number of queued steps. Regions are
    // loaded directly and never run, so the probes are the only
    // routing decisions.
    GlobalRouterConfig cfg;
    cfg.regions = 4;
    cfg.cluster.hosts = 1;
    cfg.cluster.vcus_per_host = 1;
    cfg.spill_load_factor = 2.0;
    const uint64_t video = 77;
    std::vector<int> walk;
    for (int r : wsva::cluster::ConsistentHashRing(
                     {0, 1, 2, 3}, GlobalRouterConfig::kRingVirtualNodes)
                     .affinitySet(video, 4)) {
        if (r != 0)
            walk.push_back(r);
    }
    ASSERT_EQ(walk.size(), 3u);

    uint64_t next_id = 1;
    const auto step_from = [&next_id, video](int origin) {
        TranscodeStep step = makeMotStep(next_id++, video, 0, {1280, 720},
                                         CodecType::H264);
        step.origin_region = origin;
        return step;
    };
    const auto load = [&step_from](GlobalRouter &router, int r, int n) {
        for (int i = 0; i < n; ++i)
            router.region(r).submit(step_from(-1));
    };
    // Routes one probe from origin 0; returns the region it landed in.
    const auto probe = [&step_from](GlobalRouter &router) {
        std::vector<uint64_t> before;
        for (int r = 0; r < router.regions(); ++r)
            before.push_back(router.status(r).routed);
        router.submit(step_from(0));
        for (int r = 0; r < router.regions(); ++r) {
            if (router.status(r).routed != before[static_cast<size_t>(r)])
                return r;
        }
        return -1;
    };

    {
        // Preferred and the first ring region over; the second ring
        // region sits exactly at the threshold and wins, ahead of the
        // emptier third.
        GlobalRouter router(cfg);
        load(router, 0, 3);
        load(router, walk[0], 3);
        load(router, walk[1], 2);
        EXPECT_EQ(probe(router), walk[1]);
    }
    {
        // Every region over: the least loaded wins, and of the two
        // tied at 3 the one earlier in ring order.
        GlobalRouter router(cfg);
        load(router, 0, 5);
        load(router, walk[0], 4);
        load(router, walk[1], 3);
        load(router, walk[2], 3);
        EXPECT_EQ(probe(router), walk[1]);
    }
    {
        // A quarantined origin falls back to the ring primary of the
        // regions still routable.
        GlobalRouterConfig qcfg = cfg;
        configureBlackHole(qcfg.cluster);
        qcfg.spill_load_factor = 1e9;
        qcfg.health.min_window_attempts = 1;
        qcfg.health.min_quarantine_seconds = 1e9; // Never re-admit.
        GlobalRouter router(qcfg);
        router.region(0).forceSilentFaults(0.4);
        for (const auto &step : regionZeroBurst(4))
            router.submit(step);
        for (int i = 0; i < 20 && !router.status(0).quarantined; ++i)
            router.runFor(4.0);
        ASSERT_TRUE(router.status(0).quarantined);
        const int primary =
            wsva::cluster::ConsistentHashRing(
                {1, 2, 3}, GlobalRouterConfig::kRingVirtualNodes)
                .affinitySet(video, 1)
                .front();
        EXPECT_EQ(probe(router), primary);
    }
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

TEST(GlobalRouter, PooledRegionsReproduceTheSerialDigests)
{
    // Eight small regions with spill active; region 5 black-holes,
    // is quarantined and expelled, drains idle and is re-admitted as
    // a probe, over and over. The regions advance on the pool, yet
    // the router export and every region's ledger fingerprint and
    // trace log must hash to the digests the serial region loop
    // produced (captured with one thread before the fan-out landed).
    constexpr int kRegions = 8;
    constexpr int kBlackhole = 5;
    constexpr size_t kWholeTrace = size_t{1} << 20;
    const struct
    {
        uint64_t seed;
        uint64_t digest;
    } kGolden[] = {{3, 0x30c53a567ab2e3b8ull},
                   {17, 0x65a1744134eb5b7full},
                   {101, 0x97014fb986f79f54ull}};

    for (const auto &golden : kGolden) {
        const uint64_t seed = golden.seed;
        GlobalRouterConfig cfg;
        cfg.regions = kRegions;
        cfg.cluster.hosts = 2;
        cfg.cluster.vcus_per_host = 4;
        cfg.cluster.seed = seed;
        cfg.cluster.vcu_hard_fault_per_hour = 2.0;
        configureBlackHole(cfg.cluster);
        cfg.spill_load_factor = 1.0;
        cfg.health.min_window_attempts = 4;
        cfg.health.window_steps = 2;
        cfg.health.min_quarantine_seconds = 3 * cfg.step_seconds;
        GlobalRouter router(cfg);
        UploadTrafficConfig uploads = lightUploads(seed + 1);
        uploads.uploads_per_second = 0.3;
        RegionalUploadTraffic traffic(kRegions, uploads);
        const auto arrivals = regionalFn(traffic);

        router.runFor(40.0, arrivals);
        // The scenario exercises what it claims: spill on the healthy
        // fleet, then quarantine, expel and probe re-admission.
        EXPECT_GT(router.reroutedTotal(), 0u) << "seed " << seed;
        router.region(kBlackhole).forceSilentFaults(0.4);
        router.runFor(160.0, arrivals);
        EXPECT_EQ(router.auditViolations(), 0u);
        const RegionStatus &blackhole = router.status(kBlackhole);
        EXPECT_GE(blackhole.quarantine_entries, 2u) << "seed " << seed;
        EXPECT_GE(blackhole.readmissions, 1u) << "seed " << seed;
        EXPECT_GT(blackhole.expelled, 0u) << "seed " << seed;

        uint64_t h = wsva::testsupport::fnv1a(router.exportJson());
        for (int r = 0; r < kRegions; ++r) {
            // One more serial slice per region yields the metrics its
            // ledger fingerprint needs and covers the state it left.
            ClusterSim &sim = router.region(r);
            const auto m = sim.run(cfg.step_seconds, cfg.dt);
            h = wsva::testsupport::fnv1a(
                wsva::testsupport::ledgerFingerprint(m, sim), h);
            h = wsva::testsupport::fnv1a(sim.traceLog().toJson(kWholeTrace),
                                         h);
        }
        EXPECT_EQ(h, golden.digest) << "seed " << seed;
    }
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

// ---- Z-pages ----------------------------------------------------

TEST(GlobalRouter, ZPagesScrapeSafelyWhileRegionsFlip)
{
    // /healthz and /statusz run on handler threads while router steps
    // quarantine and readmit a black-holed region, so the ring's
    // region set changes under them. The handlers may read only the
    // status the router publishes; under the tsan preset a read of
    // the ring itself is a reported race.
    GlobalRouterConfig cfg = twoRegionConfig();
    configureBlackHole(cfg.cluster);
    cfg.health.min_window_attempts = 1;
    cfg.health.window_steps = 1;
    cfg.health.min_quarantine_seconds = cfg.step_seconds;
    GlobalRouter router(cfg);
    router.region(0).forceSilentFaults(0.4);

    wsva::DebugServer server;
    router.attachDebugServer(server, "router test");
    ASSERT_TRUE(server.start());
    const uint16_t port = server.port();

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> scrapes{0};
    std::atomic<bool> failed{false};
    std::thread scraper([&] {
        while (!stop.load(std::memory_order_acquire)) {
            const auto health = wsva::testsupport::httpGet(port, "/healthz");
            const auto status = wsva::testsupport::httpGet(port, "/statusz");
            if (health.status != 200 ||
                health.body.find("\"routable\": ") == std::string::npos ||
                status.status != 200 ||
                status.body.find("region 1") == std::string::npos)
                failed.store(true, std::memory_order_relaxed);
            scrapes.fetch_add(1, std::memory_order_relaxed);
        }
    });
    // Start stepping once the scraper is serving, so the scrapes
    // overlap the ring flips.
    while (scrapes.load(std::memory_order_relaxed) == 0)
        std::this_thread::yield();
    RegionalUploadTraffic traffic(2, lightUploads(47));
    const auto arrivals = regionalFn(traffic);
    for (int step = 0; step < 200; ++step)
        router.runFor(cfg.step_seconds, arrivals);
    stop.store(true, std::memory_order_release);
    scraper.join();

    const RegionStatus &st0 = router.status(0);
    EXPECT_GE(st0.quarantine_entries + st0.readmissions, 20u);
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(router.auditViolations(), 0u);

    // The published count is the ring's as of the last router step.
    const auto health = wsva::testsupport::httpGet(port, "/healthz");
    wsva::testsupport::JsonValue doc;
    std::string error;
    ASSERT_TRUE(wsva::testsupport::parseJson(health.body, &doc, &error))
        << error;
    EXPECT_EQ(doc.numberAt("routable"),
              static_cast<double>(router.routableRegions()));
    EXPECT_EQ(doc.numberAt("regions"), 2.0);
    server.stop();
}

} // namespace
} // namespace wsva::global
