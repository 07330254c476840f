/**
 * @file
 * Event-engine scale suite: draining pre-submitted work without an
 * arrival function, determinism, telemetry gating, concurrent scrapes
 * during a run, and the conservation + worker/host/rack partition
 * invariants at a 1000-host fleet under combined faults with a capped
 * repair queue. The exact seeded ledgers are pinned separately by
 * test_golden_ledger.cc.
 */

#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

namespace wsva::cluster {
namespace {

using wsva::video::codec::CodecType;

ArrivalFn
steadyArrivals(int per_tick,
               wsva::video::Resolution res = {1920, 1080})
{
    auto counter = std::make_shared<uint64_t>(0);
    return [per_tick, res, counter](double, double) {
        std::vector<TranscodeStep> steps;
        for (int i = 0; i < per_tick; ++i) {
            const uint64_t id = (*counter)++;
            steps.push_back(makeMotStep(id, id / 8,
                                        static_cast<int>(id % 8), res,
                                        CodecType::VP9));
        }
        return steps;
    };
}

TEST(FleetScale, TickAndEventDrainPreSubmittedWorkIdentically)
{
    // No arrival function at all: pre-submitted work must dispatch
    // at start + dt and drain completely, each later placement firing
    // the moment a worker frees capacity. (The name predates the tick
    // engine's removal; the drain is what it checks.)
    ClusterConfig cfg;
    cfg.hosts = 1;
    cfg.vcus_per_host = 4;
    cfg.seed = 11;
    ClusterSim sim(cfg);
    for (uint64_t i = 0; i < 24; ++i)
        sim.submit(makeMotStep(i, i, 0, {1920, 1080}, CodecType::VP9));
    const auto m = sim.run(180.0, 1.0);
    EXPECT_EQ(m.steps_completed, 24u);
    EXPECT_EQ(m.backlog_remaining, 0u);
    EXPECT_EQ(m.steps_in_flight, 0u);
    EXPECT_TRUE(sim.conservation().holds());
    EXPECT_EQ(m.conservation_violations, 0u);
}

TEST(FleetScale, EventEngineIsDeterministic)
{
    // Same seed, same arrivals, faults on: two event runs must agree
    // on every count (the heap's (time, type, seq) ordering leaves
    // no room for nondeterminism).
    ClusterMetrics runs[2];
    ConservationSnapshot snaps[2];
    for (int i = 0; i < 2; ++i) {
        ClusterConfig cfg;
        cfg.hosts = 4;
        cfg.vcus_per_host = 8;
        cfg.seed = 1234;
        cfg.vcu_hard_fault_per_hour = 10.0;
        cfg.vcu_silent_fault_per_hour = 10.0;
        cfg.failure.host_fault_threshold = 2;
        cfg.failure.repair_cap = 1;
        cfg.failure.repair_seconds = 120.0;
        ClusterSim sim(cfg);
        runs[i] = sim.run(900.0, 1.0, steadyArrivals(4));
        snaps[i] = sim.conservation();
        EXPECT_TRUE(snaps[i].holds());
    }
    EXPECT_EQ(runs[0].steps_completed, runs[1].steps_completed);
    EXPECT_EQ(runs[0].steps_retried, runs[1].steps_retried);
    EXPECT_EQ(runs[0].steps_failed, runs[1].steps_failed);
    EXPECT_EQ(runs[0].vcus_disabled, runs[1].vcus_disabled);
    EXPECT_EQ(runs[0].hosts_repaired, runs[1].hosts_repaired);
    EXPECT_EQ(runs[0].events_processed, runs[1].events_processed);
    EXPECT_EQ(snaps[0].completed, snaps[1].completed);
    EXPECT_EQ(snaps[0].backlog, snaps[1].backlog);
    // The scenario exercised the fault machinery.
    EXPECT_GT(runs[0].vcus_disabled, 0);
    EXPECT_GT(runs[0].steps_retried, 0u);
}

TEST(FleetScale, ObservabilityOffSkipsTelemetryEventsNotOutcomes)
{
    // With observability off the engine schedules no telemetry
    // bookkeeping at all, yet every step outcome is identical
    // (recording never consumes RNG).
    ClusterMetrics m[2];
    for (int obs = 0; obs < 2; ++obs) {
        ClusterConfig cfg;
        cfg.hosts = 2;
        cfg.vcus_per_host = 8;
        cfg.seed = 55;
        cfg.observability = obs == 1;
        cfg.slo.enabled = false; // SLO accounting is not telemetry.
        cfg.vcu_hard_fault_per_hour = 6.0;
        cfg.failure.host_fault_threshold = 2;
        ClusterSim sim(cfg);
        m[obs] = sim.run(600.0, 1.0, steadyArrivals(3));
        if (obs == 0) {
            EXPECT_EQ(sim.metricsRegistry().counter(
                          "cluster.steps_completed"),
                      0u);
            EXPECT_EQ(sim.traceLog().recorded(), 0u);
        }
    }
    EXPECT_EQ(m[0].steps_completed, m[1].steps_completed);
    EXPECT_EQ(m[0].steps_retried, m[1].steps_retried);
    EXPECT_EQ(m[0].vcus_disabled, m[1].vcus_disabled);
    // The observed run pays SloEval/publish events; the dark run
    // must not.
    EXPECT_LT(m[0].events_processed, m[1].events_processed);
}

TEST(FleetScale, ConservationAndPartitionInvariantAt1kHosts)
{
    // The headline scale invariant: 1000 hosts / 20000 VCUs under
    // combined hard+silent faults squeezed through a capped repair
    // queue. The ledger must balance at every event batch and the
    // fleet rollup must partition every worker into exactly one
    // host and every host into exactly one rack — all within a small
    // event budget (no hidden per-tick fleet scans).
    ClusterConfig cfg;
    cfg.hosts = 1000;
    cfg.vcus_per_host = 20;
    cfg.hosts_per_rack = 40;
    cfg.seed = 2021;
    cfg.observability = false;
    cfg.slo.enabled = false;
    cfg.track_blast_radius = false;
    cfg.vcu_hard_fault_per_hour = 0.4;
    cfg.vcu_silent_fault_per_hour = 0.4;
    cfg.failure.host_fault_threshold = 2;
    cfg.failure.repair_cap = 3;
    cfg.failure.repair_seconds = 600.0;
    ClusterSim sim(cfg);

    const auto m = sim.run(120.0, 1.0, steadyArrivals(200));

    EXPECT_EQ(m.conservation_violations, 0u);
    const ConservationSnapshot snap = sim.conservation();
    EXPECT_TRUE(snap.holds());
    EXPECT_EQ(m.steps_submitted, 24000u);
    EXPECT_GT(m.steps_completed, 0u);
    // The fault machinery really ran at scale.
    EXPECT_GT(m.vcus_disabled, 0);
    EXPECT_GT(m.steps_retried, 0u);

    // Small event budget: roughly one event per step completion plus
    // faults, repairs, and arrival batches — nowhere near the
    // hosts x vcus x ticks = 2.4M cost a scanning engine would pay.
    EXPECT_GT(m.events_processed, 0u);
    EXPECT_LT(m.events_processed, 400000u);

    // Partition invariant: every worker counted exactly once at the
    // host level, every host exactly once at the rack level, and the
    // cluster total equals the provisioned fleet.
    const auto fleet = sim.buildFleetHealth(120.0);
    const uint64_t total =
        static_cast<uint64_t>(sim.totalVcus());
    ASSERT_EQ(fleet.hosts.size(), 1000u);
    uint64_t host_sum = 0;
    for (const auto &host : fleet.hosts) {
        EXPECT_EQ(host.counts.total(),
                  static_cast<uint64_t>(cfg.vcus_per_host));
        host_sum += host.counts.total();
    }
    EXPECT_EQ(host_sum, total);
    ASSERT_EQ(fleet.racks.size(), 25u); // 1000 hosts / 40 per rack.
    uint64_t rack_sum = 0;
    for (const auto &rack : fleet.racks)
        rack_sum += rack.counts.total();
    EXPECT_EQ(rack_sum, total);
    EXPECT_EQ(fleet.cluster.total(), total);
    EXPECT_EQ(fleet.in_flight, snap.in_flight);
    EXPECT_EQ(fleet.backlog, snap.backlog);
}

TEST(FleetScale, ScrapesRaceTheEventLoopSafely)
{
    // Concurrent /statusz-style scrapes while the event engine runs:
    // scrape threads may only touch the double-buffered board, which
    // must stay coherent under the TSan preset.
    ClusterConfig cfg;
    cfg.hosts = 8;
    cfg.vcus_per_host = 8;
    cfg.seed = 77;
    cfg.fleet_publish_every_ticks = 5;
    cfg.vcu_hard_fault_per_hour = 5.0;
    cfg.failure.host_fault_threshold = 2;
    ClusterSim sim(cfg);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> scrapes{0};
    std::thread scraper([&] {
        while (!stop.load(std::memory_order_acquire)) {
            const auto snap = sim.fleetHealth().snapshot();
            if (snap != nullptr) {
                volatile size_t sink = snap->toText().size();
                (void)sink;
                scrapes.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });
    const auto m = sim.run(600.0, 1.0, steadyArrivals(4));
    stop.store(true, std::memory_order_release);
    scraper.join();

    EXPECT_GT(scrapes.load(), 0u);
    EXPECT_GT(m.steps_completed, 0u);
    EXPECT_TRUE(sim.conservation().holds());
}

} // namespace
} // namespace wsva::cluster
