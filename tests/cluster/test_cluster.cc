#include "cluster/cluster.h"

#include <gtest/gtest.h>

namespace wsva::cluster {
namespace {

using wsva::video::codec::CodecType;

ClusterConfig
smallCluster()
{
    ClusterConfig cfg;
    cfg.hosts = 1;
    cfg.vcus_per_host = 4;
    cfg.seed = 7;
    return cfg;
}

/** Arrival function producing @p per_tick MOT steps each tick. */
ArrivalFn
steadyArrivals(int per_tick, wsva::video::Resolution res = {1920, 1080})
{
    auto counter = std::make_shared<uint64_t>(0);
    return [per_tick, res, counter](double, double) {
        std::vector<TranscodeStep> steps;
        for (int i = 0; i < per_tick; ++i) {
            const uint64_t id = (*counter)++;
            steps.push_back(
                makeMotStep(id, id / 8, static_cast<int>(id % 8), res,
                            CodecType::VP9));
        }
        return steps;
    };
}

TEST(ClusterSim, CompletesSubmittedWork)
{
    ClusterSim sim(smallCluster());
    for (uint64_t i = 0; i < 10; ++i)
        sim.submit(makeMotStep(i, i, 0, {1920, 1080}, CodecType::VP9));
    const auto m = sim.run(60.0, 1.0);
    EXPECT_EQ(m.steps_completed, 10u);
    EXPECT_EQ(m.backlog_remaining, 0u);
    EXPECT_EQ(m.corrupt_escaped, 0u);
    EXPECT_GT(m.output_pixels, 0.0);
}

TEST(ClusterSim, ThroughputSaturatesUnderOverload)
{
    // Flood a small cluster: throughput must approach the encoder
    // capacity bound and utilization must be high.
    ClusterConfig cfg = smallCluster();
    ClusterSim sim(cfg);
    const auto m = sim.run(600.0, 1.0, steadyArrivals(40));
    EXPECT_GT(m.encoder_utilization, 0.8);
    EXPECT_GT(m.backlog_remaining, 0u);
    // Per-VCU goodput should be in the hundreds of Mpix/s (paper:
    // ~765 Mpix/s per VCU SOT, ~927 MOT at VP9 two-pass settings).
    EXPECT_GT(m.mpix_per_vcu, 400.0);
    EXPECT_LT(m.mpix_per_vcu, 1000.0);
}

TEST(ClusterSim, DeterministicForSeed)
{
    auto run_once = [] {
        ClusterSim sim(smallCluster());
        return sim.run(120.0, 1.0, steadyArrivals(3)).steps_completed;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(ClusterSim, HardFaultsShrinkCompletedWork)
{
    ClusterConfig healthy = smallCluster();
    ClusterConfig faulty = smallCluster();
    faulty.vcu_hard_fault_per_hour = 20.0;
    faulty.failure.host_fault_threshold = 100; // No repairs here.
    ClusterSim a(healthy);
    ClusterSim b(faulty);
    const auto ma = a.run(600.0, 1.0, steadyArrivals(8));
    const auto mb = b.run(600.0, 1.0, steadyArrivals(8));
    EXPECT_LT(mb.output_pixels, ma.output_pixels);
    EXPECT_GT(mb.vcus_disabled, 0);
}

TEST(ClusterSim, RepairRestoresCapacity)
{
    ClusterConfig cfg = smallCluster();
    cfg.hosts = 2;
    cfg.vcu_hard_fault_per_hour = 30.0;
    cfg.failure.host_fault_threshold = 2;
    cfg.failure.repair_seconds = 120.0;
    ClusterSim sim(cfg);
    const auto m = sim.run(1200.0, 1.0, steadyArrivals(4));
    EXPECT_GT(m.hosts_repaired, 0u);
}

TEST(ClusterSim, RepairWaitlistSurvivesRunBoundaries)
{
    // A host the repair cap defers must keep its waitlist place across
    // run() calls. With one VCU per host and a fault threshold of one,
    // a host whose VCU is down draws no further faults, so only the
    // waitlist brings it to repair; sliced callers (the global router
    // runs 4-s slices) used to drop the waitlist at every return.
    // Invariant at every slice boundary: while a repair slot is free,
    // no host sits down outside repair.
    ClusterConfig cfg;
    cfg.hosts = 4;
    cfg.vcus_per_host = 1;
    cfg.seed = 5;
    cfg.vcu_hard_fault_per_hour = 0.2 * 3600.0;
    cfg.failure.host_fault_threshold = 1;
    cfg.failure.repair_cap = 1;
    cfg.failure.repair_seconds = 5.0;
    ClusterSim sim(cfg);
    uint64_t repaired = 0;
    for (int slice = 1; slice <= 200; ++slice) {
        repaired += sim.run(1.0, 1.0).hosts_repaired;
        const auto fleet = sim.buildFleetHealth(slice);
        int in_repair = 0;
        int down_outside = 0;
        for (const auto &host : fleet.hosts) {
            if (host.counts.in_repair > 0)
                ++in_repair;
            else if (host.counts.healthy < host.counts.total())
                ++down_outside;
        }
        if (in_repair < cfg.failure.repair_cap) {
            ASSERT_EQ(down_outside, 0) << "slice " << slice;
        }
    }
    // Repairs are bound by the cap: one 5-s repair at a time admits
    // at most 40 in 200 s, and a busy waitlist keeps the slot full.
    EXPECT_GE(repaired, 35u);
}

TEST(ClusterSim, SilentFaultWithMitigationGetsQuarantined)
{
    ClusterConfig cfg = smallCluster();
    cfg.vcu_silent_fault_per_hour = 30.0;
    cfg.failure.golden_screening = true;
    cfg.failure.abort_on_failure = true;
    cfg.failure.integrity_detect_prob = 0.9;
    // VCU-level mitigation is the subject: a host that crosses its
    // fault threshold goes to repair at once, before any dispatch can
    // golden-screen its aborted workers, so keep host repair out.
    cfg.failure.host_fault_threshold = 1000000;
    ClusterSim sim(cfg);
    const auto m = sim.run(900.0, 1.0, steadyArrivals(8));
    EXPECT_GT(m.workers_quarantined, 0);
    // Mitigated corruption escape rate must be tiny.
    const double total =
        static_cast<double>(m.steps_completed + m.corrupt_escaped);
    EXPECT_LT(m.corrupt_escaped / total, 0.05);
}

TEST(ClusterSim, BlackHolingWithoutMitigation)
{
    // Without mitigations a fast-failing VCU keeps absorbing work:
    // escaped corruption is much larger than with mitigations.
    auto run_with = [](bool mitigated) {
        ClusterConfig cfg;
        cfg.hosts = 1;
        cfg.vcus_per_host = 4;
        cfg.seed = 11;
        cfg.vcu_silent_fault_per_hour = 10.0;
        cfg.silent_speed_factor = 0.3;
        // VCU-level mitigation is the subject here; keep host-level
        // repair out of the picture.
        cfg.failure.host_fault_threshold = 1000000;
        cfg.failure.golden_screening = mitigated;
        cfg.failure.abort_on_failure = mitigated;
        cfg.failure.integrity_detect_prob = mitigated ? 0.9 : 0.3;
        ClusterSim sim(cfg);
        auto counter = std::make_shared<uint64_t>(0);
        const auto m = sim.run(
            1800.0, 1.0,
            [counter](double, double) {
                std::vector<TranscodeStep> steps;
                for (int i = 0; i < 6; ++i) {
                    const uint64_t id = (*counter)++;
                    steps.push_back(makeMotStep(id, id / 8,
                                                static_cast<int>(id % 8),
                                                {1920, 1080},
                                                CodecType::VP9));
                }
                return steps;
            });
        return m;
    };
    const auto bad = run_with(false);
    const auto good = run_with(true);
    EXPECT_GT(bad.corrupt_escaped, 3 * good.corrupt_escaped + 5);
}

TEST(ClusterSim, NumaAwarenessImprovesThroughput)
{
    auto run_with = [](bool aware) {
        ClusterConfig cfg;
        cfg.hosts = 1;
        cfg.vcus_per_host = 4;
        cfg.seed = 13;
        cfg.numa_aware = aware;
        cfg.numa_penalty_factor = 1.2;
        ClusterSim sim(cfg);
        auto counter = std::make_shared<uint64_t>(0);
        // Saturating load: the NUMA penalty only costs throughput
        // when the cluster is resource-bound.
        return sim.run(600.0, 0.25, [counter](double, double) {
            std::vector<TranscodeStep> steps;
            for (int i = 0; i < 40; ++i) {
                const uint64_t id = (*counter)++;
                steps.push_back(makeMotStep(id, id, 0, {1920, 1080},
                                            CodecType::VP9));
            }
            return steps;
        });
    };
    const auto aware = run_with(true);
    const auto unaware = run_with(false);
    EXPECT_GT(aware.output_pixels, unaware.output_pixels * 1.1);
}

TEST(ClusterSim, DecodeOffloadLowersDecoderUtilization)
{
    auto run_with = [](double sw_fraction) {
        ClusterConfig cfg;
        cfg.hosts = 1;
        cfg.vcus_per_host = 4;
        cfg.seed = 17;
        cfg.mapping.software_decode_fraction = sw_fraction;
        ClusterSim sim(cfg);
        auto counter = std::make_shared<uint64_t>(0);
        return sim.run(600.0, 1.0, [counter](double, double) {
            std::vector<TranscodeStep> steps;
            for (int i = 0; i < 10; ++i) {
                const uint64_t id = (*counter)++;
                steps.push_back(makeMotStep(id, id, 0, {1920, 1080},
                                            CodecType::VP9));
            }
            return steps;
        });
    };
    const auto hw_only = run_with(0.0);
    const auto offload = run_with(0.4);
    EXPECT_LT(offload.decoder_utilization, hw_only.decoder_utilization);
    EXPECT_GT(offload.host_cpu_utilization, hw_only.host_cpu_utilization);
}

TEST(ClusterSim, BinPackingBeatsSlotScheduling)
{
    auto run_with = [](bool binpack) {
        ClusterConfig cfg;
        cfg.hosts = 1;
        cfg.vcus_per_host = 4;
        cfg.seed = 19;
        cfg.use_binpack = binpack;
        ClusterSim sim(cfg);
        auto counter = std::make_shared<uint64_t>(0);
        // Mixed sizes: mostly small steps plus some large ones.
        return sim.run(600.0, 1.0, [counter](double, double) {
            std::vector<TranscodeStep> steps;
            for (int i = 0; i < 12; ++i) {
                const uint64_t id = (*counter)++;
                const bool big = id % 6 == 0;
                steps.push_back(makeMotStep(
                    id, id, 0,
                    big ? wsva::video::Resolution{3840, 2160}
                        : wsva::video::Resolution{854, 480},
                    CodecType::VP9));
            }
            return steps;
        });
    };
    const auto packed = run_with(true);
    const auto slots = run_with(false);
    EXPECT_GT(packed.output_pixels, slots.output_pixels * 1.3);
}

TEST(ClusterSim, HorizonReportsInFlightWork)
{
    // Heavy steps against a short horizon: whatever is still on a
    // worker at the end must show up in steps_in_flight rather than
    // silently disappearing from the run's accounting.
    ClusterSim sim(smallCluster());
    const auto m = sim.run(6.0, 1.0, steadyArrivals(4, {3840, 2160}));
    EXPECT_GT(m.steps_in_flight, 0u);
    EXPECT_EQ(m.steps_submitted, m.steps_completed + m.steps_in_flight +
                                     m.backlog_remaining);
    EXPECT_EQ(sim.inFlightSteps(), m.steps_in_flight);
}

TEST(ClusterSim, MetricsRegistryMirrorsRunCounters)
{
    ClusterConfig cfg = smallCluster();
    // Series are sampled at the publish cadence; publish every dt.
    cfg.fleet_publish_every_ticks = 1;
    ClusterSim sim(cfg);
    for (uint64_t i = 0; i < 10; ++i)
        sim.submit(makeMotStep(i, i, 0, {1920, 1080}, CodecType::VP9));
    const auto m = sim.run(60.0, 1.0);
    const auto &reg = sim.metricsRegistry();
    EXPECT_EQ(reg.counter("cluster.steps_completed"), m.steps_completed);
    EXPECT_EQ(reg.counter("cluster.steps_submitted"), 10u);
    EXPECT_DOUBLE_EQ(reg.gauge("cluster.backlog_remaining"), 0.0);
    // Utilization time-series were sampled at every publish.
    EXPECT_GT(reg.seriesSnapshot("util.encoder").size(), 10u);
    EXPECT_GT(reg.seriesSnapshot("backlog").size(), 10u);
}

TEST(ClusterSim, ServiceTimeHistogramCountsEveryFinishedExecution)
{
    // worker.service_seconds takes one sample per execution that ran
    // to its finish time: every completion (escaped corruption
    // included) plus every detected-corrupt run, which finished but
    // is retried. Executions a hard fault or a repair drain cut short
    // take none.
    ClusterConfig cfg;
    cfg.hosts = 6;
    cfg.vcus_per_host = 5;
    cfg.seed = 7;
    cfg.vcu_hard_fault_per_hour = 30.0;
    cfg.vcu_silent_fault_per_hour = 15.0;
    cfg.failure.host_fault_threshold = 2;
    cfg.failure.repair_seconds = 90.0;
    cfg.failure.repair_cap = 1;
    ClusterSim sim(cfg);
    const auto m = sim.run(600.0, 1.0, steadyArrivals(4));
    ASSERT_GT(m.steps_failed, 0u);
    ASSERT_GT(m.hosts_repaired, 0u);
    ASSERT_GT(m.corrupt_detected, 0u);
    EXPECT_EQ(sim.metricsRegistry().histogramCount("worker.service_seconds"),
              m.steps_completed + m.corrupt_detected);
}

TEST(ClusterSim, TraceRecordsStepLifecycle)
{
    ClusterSim sim(smallCluster());
    for (uint64_t i = 0; i < 10; ++i)
        sim.submit(makeMotStep(i, i, 0, {1920, 1080}, CodecType::VP9));
    const auto m = sim.run(60.0, 1.0);
    const auto &trace = sim.traceLog();
    EXPECT_EQ(trace.countOf(TraceEventType::StepScheduled), 10u);
    EXPECT_EQ(trace.countOf(TraceEventType::StepCompleted),
              m.steps_completed);
    // Events carry sim timestamps within the run window.
    for (const auto &ev : trace.snapshot()) {
        EXPECT_GE(ev.time, 0.0);
        EXPECT_LE(ev.time, 60.0);
    }
}

TEST(ClusterSim, ExportJsonHasAllSections)
{
    ClusterConfig cfg = smallCluster();
    cfg.vcu_hard_fault_per_hour = 30.0;
    cfg.failure.host_fault_threshold = 2;
    cfg.failure.repair_seconds = 60.0;
    ClusterSim sim(cfg);
    sim.run(600.0, 1.0, steadyArrivals(4));
    const std::string json = sim.exportJson();
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"trace\""), std::string::npos);
    EXPECT_NE(json.find("\"conservation\""), std::string::npos);
    EXPECT_NE(json.find("\"holds\": true"), std::string::npos);
    EXPECT_NE(json.find("cluster.steps_completed"), std::string::npos);
    EXPECT_NE(json.find("fault_injected"), std::string::npos);
}

TEST(ClusterSim, BlastRadiusRecordsChunkPlacement)
{
    ClusterSim sim(smallCluster());
    for (int c = 0; c < 6; ++c) {
        sim.submit(
            makeMotStep(static_cast<uint64_t>(c), 1, c, {1920, 1080},
                        CodecType::VP9));
    }
    sim.run(60.0, 1.0);
    EXPECT_GE(sim.blastRadius().vcusTouching(1), 1u);
}

} // namespace
} // namespace wsva::cluster
