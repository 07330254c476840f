/**
 * @file
 * Step-conservation suite: under any mix of hard faults, silent
 * faults, integrity retries, aborts, quarantines, and capped repairs,
 * every step ever submitted must sit in exactly one bucket —
 * completed, in flight, backlog, or terminally failed — after every
 * dt slice and at the horizon. Each scenario drives the simulator one
 * dt slice per run() call (run() keeps its clock, RNG and in-flight
 * work across calls) and audits the ledger after every slice, on top
 * of the simulator's own checker after every batch of events.
 */

#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <memory>

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

/** Drive @p sim one tick at a time, asserting the ledger after every
 *  tick. Returns the total internal violations observed. */
uint64_t
driveTicks(ClusterSim &sim, int ticks, const ArrivalFn &arrivals)
{
    uint64_t violations = 0;
    for (int tick = 0; tick < ticks; ++tick) {
        const auto m = sim.run(1.0, 1.0, arrivals);
        violations += m.conservation_violations;
        const ConservationSnapshot snap = sim.conservation();
        EXPECT_TRUE(snap.holds())
            << "tick " << tick << ": submitted " << snap.submitted
            << " != completed " << snap.completed << " + failed "
            << snap.failed_terminal << " + in-flight "
            << snap.in_flight << " + backlog " << snap.backlog;
        if (!snap.holds())
            break; // One detailed failure beats hundreds.
    }
    return violations;
}

TEST(StepConservation, HoldsEveryTickUnderCombinedFailures)
{
    // Hard faults + silent faults + abort-on-failure + integrity
    // retries + host repairs squeezed through a cap of one: every
    // accounting path at once.
    ClusterConfig cfg;
    cfg.hosts = 2;
    cfg.vcus_per_host = 4;
    cfg.seed = 23;
    cfg.vcu_hard_fault_per_hour = 20.0;
    cfg.vcu_silent_fault_per_hour = 20.0;
    cfg.failure.host_fault_threshold = 2;
    cfg.failure.repair_cap = 1;
    cfg.failure.repair_seconds = 120.0;
    ClusterSim sim(cfg);

    const uint64_t violations = driveTicks(sim, 900, steadyArrivals(6));
    EXPECT_EQ(violations, 0u);

    // The scenario must actually have exercised the failure paths,
    // otherwise the invariant was trivially true.
    const auto &reg = sim.metricsRegistry();
    EXPECT_GT(reg.counter("cluster.vcus_disabled"), 0u);
    EXPECT_GT(reg.counter("cluster.silent_faults"), 0u);
    EXPECT_GT(reg.counter("cluster.steps_retried"), 0u);
    EXPECT_GT(reg.counter("repair.entered"), 0u);
    EXPECT_GT(sim.traceLog().countOf(TraceEventType::StepRetried), 0u);
}

TEST(StepConservation, HoldsAtHorizonWithInFlightWork)
{
    // Heavy 4K steps against a tiny horizon: the horizon cuts work
    // off mid-service. That work must appear in steps_in_flight (it
    // used to vanish from the ledger entirely).
    ClusterConfig cfg;
    cfg.hosts = 1;
    cfg.vcus_per_host = 4;
    cfg.seed = 5;
    ClusterSim sim(cfg);
    const auto m =
        sim.run(6.0, 1.0, steadyArrivals(4, {3840, 2160}));

    EXPECT_GT(m.steps_in_flight, 0u);
    EXPECT_EQ(m.steps_submitted,
              m.steps_completed + m.steps_in_flight +
                  m.backlog_remaining);
    const ConservationSnapshot snap = sim.conservation();
    EXPECT_TRUE(snap.holds());
    EXPECT_EQ(snap.in_flight, m.steps_in_flight);
    EXPECT_EQ(m.conservation_violations, 0u);
}

TEST(StepConservation, HoldsUnderQuarantineAndAffinityPlacement)
{
    // Silent-fault mitigation path: corrupt outputs detected, work
    // aborted, workers golden-screened into quarantine — combined
    // with consistent-hash affinity scheduling (deferral rotations
    // must not lose or duplicate steps).
    ClusterConfig cfg;
    cfg.hosts = 1;
    cfg.vcus_per_host = 6;
    cfg.seed = 29;
    cfg.vcu_silent_fault_per_hour = 30.0;
    cfg.failure.host_fault_threshold = 1000000; // No host repair.
    cfg.failure.golden_screening = true;
    cfg.failure.abort_on_failure = true;
    cfg.failure.integrity_detect_prob = 0.9;
    cfg.use_consistent_hashing = true;
    cfg.affinity_set_size = 2;
    ClusterSim sim(cfg);

    const uint64_t violations = driveTicks(sim, 600, steadyArrivals(8));
    EXPECT_EQ(violations, 0u);
    const auto &reg = sim.metricsRegistry();
    EXPECT_GT(reg.counter("cluster.workers_quarantined"), 0u);
    EXPECT_GT(reg.counter("cluster.corrupt_detected"), 0u);
}

TEST(StepConservation, HoldsWithObservabilityDisabled)
{
    // The checker is an invariant, not a metric: it runs (and holds)
    // with the registry and trace log off.
    ClusterConfig cfg;
    cfg.hosts = 1;
    cfg.vcus_per_host = 4;
    cfg.seed = 31;
    cfg.observability = false;
    cfg.vcu_hard_fault_per_hour = 15.0;
    cfg.failure.host_fault_threshold = 2;
    cfg.failure.repair_seconds = 60.0;
    ClusterSim sim(cfg);

    const auto m = sim.run(600.0, 1.0, steadyArrivals(4));
    EXPECT_GT(m.conservation_checks, 600u - 1u);
    EXPECT_EQ(m.conservation_violations, 0u);
    EXPECT_TRUE(sim.conservation().holds());
    // Nothing was recorded while disabled.
    EXPECT_EQ(sim.metricsRegistry().counter("cluster.steps_completed"),
              0u);
    EXPECT_EQ(sim.traceLog().recorded(), 0u);
}

TEST(StepConservation, PreSubmittedWorkIsLedgered)
{
    // submit() before run() lands in the same lifetime ledger as
    // arrivals during run().
    ClusterConfig cfg;
    cfg.hosts = 1;
    cfg.vcus_per_host = 4;
    cfg.seed = 37;
    ClusterSim sim(cfg);
    for (uint64_t i = 0; i < 10; ++i)
        sim.submit(makeMotStep(i, i, 0, {1920, 1080}, CodecType::VP9));
    EXPECT_EQ(sim.conservation().submitted, 10u);
    EXPECT_EQ(sim.conservation().backlog, 10u);
    sim.run(60.0, 1.0);
    const ConservationSnapshot snap = sim.conservation();
    EXPECT_TRUE(snap.holds());
    EXPECT_EQ(snap.completed, 10u);
}

} // namespace
} // namespace wsva::cluster
