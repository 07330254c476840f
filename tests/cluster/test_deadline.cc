/**
 * @file
 * Deadline scheduling and load shedding: the DispatchQueue's EDF /
 * FIFO / shed-lot mechanics in isolation, then the cluster-level
 * policy — live steps displacing batch work under pressure, shed
 * steps surviving in the conservation ledger and completing after the
 * crunch, including when nothing else is left to run.
 */

#include "cluster/cluster.h"
#include "workload/traffic.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace wsva::cluster {
namespace {

using wsva::video::codec::CodecType;

TranscodeStep
batchStep(uint64_t id, int frames = 600,
          wsva::video::Resolution res = {3840, 2160})
{
    auto step = makeMotStep(id, id, 0, res, CodecType::VP9);
    step.frames = frames;
    step.priority = Priority::Batch;
    return step;
}

TranscodeStep
liveStep(uint64_t id, double deadline_time,
         wsva::video::Resolution res = {1920, 1080})
{
    auto step = makeMotStep(id, 1000 + id, 0, res, CodecType::VP9);
    step.frames = 60;
    step.two_pass = false;
    step.use_case = UseCase::Live;
    step.priority = Priority::Critical;
    step.deadline_time = deadline_time;
    return step;
}

// ---- DispatchQueue mechanics ----------------------------------------

TEST(DispatchQueue, FifoLaneKeepsArrivalOrderWithRetryFront)
{
    DispatchQueue q;
    q.push_back(batchStep(1));
    q.push_back(batchStep(2));
    q.push_front(batchStep(3)); // Retry jumps the FIFO lane.
    ASSERT_EQ(q.size(), 3u);
    EXPECT_EQ(q.front().id, 3u);
    q.pop_front();
    EXPECT_EQ(q.front().id, 1u);
    q.pop_front();
    EXPECT_EQ(q.front().id, 2u);
    q.pop_front();
    EXPECT_TRUE(q.empty());
}

TEST(DispatchQueue, EdfLaneOrdersByDeadline)
{
    DispatchQueue q;
    q.push_back(liveStep(1, 30.0));
    q.push_back(liveStep(2, 10.0));
    q.push_back(liveStep(3, 20.0));
    EXPECT_EQ(q.deadlineSize(), 3u);
    EXPECT_EQ(q.front().id, 2u);
    q.pop_front();
    EXPECT_EQ(q.front().id, 3u);
    q.pop_front();
    EXPECT_EQ(q.front().id, 1u);
}

TEST(DispatchQueue, EqualDeadlinesBreakTiesByArrival)
{
    DispatchQueue q;
    for (uint64_t i = 0; i < 16; ++i)
        q.push_back(liveStep(i, 42.0));
    for (uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(q.front().id, i) << "tie broken out of order";
        q.pop_front();
    }
}

TEST(DispatchQueue, DeadlineStepsOutrankFifoWork)
{
    DispatchQueue q;
    q.push_back(batchStep(1));
    q.push_back(liveStep(2, 1e9)); // Even a distant deadline wins.
    q.push_back(batchStep(3));
    EXPECT_EQ(q.front().id, 2u);
    q.pop_front();
    EXPECT_EQ(q.front().id, 1u);
    // A retried deadline step re-enters the EDF lane by deadline.
    q.push_front(liveStep(4, 5.0));
    EXPECT_EQ(q.front().id, 4u);
}

TEST(DispatchQueue, ParkBatchMovesOnlyBatchAndUnparksInOrder)
{
    DispatchQueue q;
    q.push_back(batchStep(1));
    auto normal = makeMotStep(2, 2, 0, {1920, 1080}, CodecType::VP9);
    q.push_back(normal); // Priority::Normal stays.
    q.push_back(batchStep(3));
    EXPECT_EQ(q.parkBatch(), 2u);
    EXPECT_EQ(q.shedSize(), 2u);
    EXPECT_EQ(q.size(), 1u); // Shed lot is out of the dispatch lanes.
    EXPECT_EQ(q.front().id, 2u);
    // A preempted running step parks behind the queued ones.
    q.parkStep(batchStep(4));
    EXPECT_EQ(q.shedSize(), 3u);
    EXPECT_EQ(q.unparkAll(), 3u);
    EXPECT_EQ(q.shedSize(), 0u);
    q.pop_front(); // id 2
    EXPECT_EQ(q.front().id, 1u);
    q.pop_front();
    EXPECT_EQ(q.front().id, 3u);
    q.pop_front();
    EXPECT_EQ(q.front().id, 4u);
}

// ---- Cluster-level shedding policy ----------------------------------

/** Two workers saturated by long batch steps, plus queued batch
 *  spares; live deadline steps then arrive. */
ClusterConfig
crunchConfig(bool shed)
{
    ClusterConfig cfg;
    cfg.hosts = 1;
    cfg.vcus_per_host = 2;
    cfg.seed = 11;
    cfg.deadline.shed_enabled = shed;
    cfg.deadline.slack_guard_seconds = 2.0;
    cfg.slo.p99_target_seconds = 30.0;
    return cfg;
}

TEST(DeadlineScheduler, SheddingPreemptsBatchAndMeetsDeadlines)
{
    ClusterSim sim(crunchConfig(true));
    // Fill both workers and the queue with heavy batch work.
    for (uint64_t i = 0; i < 4; ++i)
        sim.submit(batchStep(i));
    sim.run(2.0, 1.0); // Both workers now run a batch step.
    ASSERT_EQ(sim.conservation().in_flight, 2u);

    // Live segments that cannot wait for a 4K batch step to drain
    // (sim time is 2.0 here; the batch steps run for ~10 s).
    sim.submit(liveStep(100, 10.0));
    sim.submit(liveStep(101, 10.0));
    const auto m = sim.run(120.0, 1.0);

    EXPECT_GT(m.steps_preempted, 0u);
    EXPECT_GT(m.steps_shed, m.steps_preempted); // Queued ones parked too.
    EXPECT_EQ(m.deadline_completions, 2u);
    EXPECT_EQ(m.deadline_misses, 0u);
    // After the crunch the shed lot drained and everything completed.
    EXPECT_EQ(m.shed_remaining, 0u);
    const ConservationSnapshot snap = sim.conservation();
    EXPECT_TRUE(snap.holds());
    EXPECT_EQ(snap.completed, snap.submitted);
    EXPECT_GT(sim.metricsRegistry().counter("cluster.steps_unshed"), 0u);
    EXPECT_GT(sim.traceLog().countOf(TraceEventType::StepShed), 0u);
    EXPECT_EQ(m.conservation_violations, 0u);
}

TEST(DeadlineScheduler, NoSheddingLetsLiveDeadlinesMiss)
{
    ClusterSim sim(crunchConfig(false));
    for (uint64_t i = 0; i < 4; ++i)
        sim.submit(batchStep(i));
    sim.run(2.0, 1.0);
    sim.submit(liveStep(100, 10.0));
    sim.submit(liveStep(101, 10.0));
    const auto m = sim.run(200.0, 1.0);

    EXPECT_EQ(m.steps_shed, 0u);
    EXPECT_EQ(m.steps_preempted, 0u);
    EXPECT_EQ(m.deadline_completions, 2u);
    // Blocked behind ~minutes of batch service: both miss.
    EXPECT_EQ(m.deadline_misses, 2u);
    EXPECT_TRUE(sim.conservation().holds());
}

TEST(DeadlineScheduler, ShedStepsStayInLedgerWhileParked)
{
    ClusterSim sim(crunchConfig(true));
    for (uint64_t i = 0; i < 6; ++i)
        sim.submit(batchStep(i));
    sim.run(2.0, 1.0);
    // A stream of live steps keeps the EDF lane busy so the shed lot
    // cannot release; the parked steps must be visible in the ledger
    // the whole time.
    uint64_t id = 100;
    double now = 2.0; // Sim clock persists across run() calls.
    bool saw_shed = false;
    for (int tick = 0; tick < 30; ++tick) {
        sim.submit(liveStep(id, now + 6.0));
        ++id;
        now += 1.0;
        const auto m = sim.run(1.0, 1.0);
        EXPECT_EQ(m.conservation_violations, 0u);
        const ConservationSnapshot snap = sim.conservation();
        ASSERT_TRUE(snap.holds())
            << "shed " << snap.shed << " backlog " << snap.backlog;
        saw_shed |= snap.shed > 0;
    }
    EXPECT_TRUE(saw_shed);
    // Stop the live stream; the shed lot must drain and complete.
    const auto m = sim.run(600.0, 1.0);
    EXPECT_EQ(m.shed_remaining, 0u);
    EXPECT_EQ(sim.conservation().completed,
              sim.conservation().submitted);
}

TEST(DeadlineScheduler, ShedLotReleasesWithNothingElseQueued)
{
    // One VCU runs two batch steps when a live step arrives already
    // under its slack guard: both batch steps are preempted into the
    // shed lot and the live step runs. Once it finishes nothing is
    // queued or running, so no arrival or completion marks the end of
    // the calm period; dispatch must still release the lot then and
    // finish all three steps.
    ClusterConfig cfg = crunchConfig(true);
    cfg.vcus_per_host = 1;
    ClusterSim sim(cfg);
    sim.submit(batchStep(0, 300, {2560, 1440}));
    sim.submit(batchStep(1, 300, {2560, 1440}));
    sim.run(2.0, 1.0);
    ASSERT_EQ(sim.conservation().in_flight, 2u);

    sim.submit(liveStep(100, 5.0)); // Sim time is 2.0: slack < guard.
    const auto m = sim.run(120.0, 1.0);

    EXPECT_EQ(m.steps_preempted, 2u);
    EXPECT_EQ(m.deadline_misses, 0u);
    EXPECT_EQ(m.shed_remaining, 0u);
    const ConservationSnapshot snap = sim.conservation();
    EXPECT_TRUE(snap.holds());
    EXPECT_EQ(snap.completed, 3u);
    EXPECT_EQ(m.conservation_violations, 0u);
}

/**
 * Surge workload: a batch stream that saturates the fleet (16 steps/s
 * of ~5 s-service 1080p MOT against a 2x8-VCU drain rate of ~12.8/s,
 * so workers pack four batch steps each) plus live channel churn with
 * a mid-run flash crowd.
 */
ArrivalFn
surgeArrivals(std::shared_ptr<wsva::workload::LiveTraffic> live,
              std::shared_ptr<uint64_t> next_batch_id,
              int batch_per_tick)
{
    return [live, next_batch_id, batch_per_tick](double now, double dt) {
        std::vector<TranscodeStep> steps = live->arrivals(now, dt);
        for (int i = 0; i < batch_per_tick; ++i)
            steps.push_back(batchStep(1000000 + (*next_batch_id)++, 300,
                                      {1920, 1080}));
        return steps;
    };
}

wsva::workload::LiveTrafficConfig
surgeLiveConfig()
{
    wsva::workload::LiveTrafficConfig live;
    live.concurrent_streams = 0;
    live.segment_seconds = 2.0;
    live.deadline_seconds = 5.0;
    live.channels_per_second = 0.4;
    live.mean_channel_seconds = 30.0;
    live.surge_multiplier = 10.0;
    live.surge_start = 60.0;
    live.surge_end = 90.0;
    live.seed = 33;
    return live;
}

ClusterConfig
surgeClusterConfig()
{
    ClusterConfig cfg;
    cfg.hosts = 2;
    cfg.vcus_per_host = 8;
    cfg.seed = 7;
    cfg.deadline.shed_enabled = true;
    cfg.deadline.slack_guard_seconds = 2.0;
    cfg.track_blast_radius = false;
    return cfg;
}

TEST(DeadlineScheduler, LedgerHoldsUnderSurgeOnBothEngines)
{
    // (The name predates the tick engine's removal.)
    auto cfg = surgeClusterConfig();
    // Faults exercise the abort/retry paths against the shed
    // accounting (the shed/abort paths must each decrement the
    // in-flight counter exactly once; the debug cross-check in
    // checkConservation audits that per batch).
    cfg.vcu_hard_fault_per_hour = 30.0;
    cfg.failure.host_fault_threshold = 3;
    cfg.failure.repair_seconds = 45.0;
    ClusterSim sim(cfg);
    auto live =
        std::make_shared<wsva::workload::LiveTraffic>(surgeLiveConfig());
    auto next_id = std::make_shared<uint64_t>(0);
    const auto m =
        sim.run(150.0, 1.0, surgeArrivals(live, next_id, 16));

    EXPECT_EQ(m.conservation_violations, 0u);
    const ConservationSnapshot snap = sim.conservation();
    EXPECT_TRUE(snap.holds());
    EXPECT_GT(m.steps_shed, 0u);
    EXPECT_GT(m.deadline_completions, 0u);
    EXPECT_GT(m.events_processed, 0u);
}

// ---- SLO deadline accounting and the queue-age epoch fix ------------

TEST(SloDeadline, WindowMissRateEvictsOnTheExactEdge)
{
    SloConfig cfg;
    cfg.window_ticks = 4;
    SloMonitor slo(cfg);
    slo.onSubmit(1, 0.0, 0, /*deadline_time=*/1.0);
    slo.onComplete(1, 2.0); // Missed by 1 s.
    EXPECT_EQ(slo.deadlineMissed(), 1u);
    EXPECT_DOUBLE_EQ(slo.windowDeadlineMissRate(), 1.0);
    EXPECT_DOUBLE_EQ(slo.deadlineMissRate(), 1.0);
    // The completion is stamped at tick 0; it must leave the window
    // exactly when the tick counter reaches window_ticks, not one
    // tick early or late.
    for (int t = 0; t < 3; ++t) {
        slo.onTick(3.0 + t);
        EXPECT_DOUBLE_EQ(slo.windowDeadlineMissRate(), 1.0)
            << "evicted early at tick " << t + 1;
    }
    slo.onTick(6.0);
    EXPECT_DOUBLE_EQ(slo.windowDeadlineMissRate(), 0.0);
    // Lifetime accounting is untouched by the window.
    EXPECT_DOUBLE_EQ(slo.deadlineMissRate(), 1.0);
}

TEST(SloDeadline, MadeDeadlinesDoNotCountAsMisses)
{
    SloMonitor slo;
    slo.onSubmit(1, 0.0, 0, 5.0);
    slo.onComplete(1, 5.0); // Exactly on time.
    slo.onSubmit(2, 0.0, 0, 5.0);
    slo.onComplete(2, 4.0);
    slo.onSubmit(3, 0.0); // No deadline: not tracked as live.
    slo.onComplete(3, 100.0);
    EXPECT_EQ(slo.deadlineTracked(), 2u);
    EXPECT_EQ(slo.deadlineMissed(), 0u);
    EXPECT_GT(slo.liveQuantile(0.99), 0.0);
}

TEST(SloDeadline, QueueAgeTracksSubmissionsWithTelemetryDark)
{
    // Regression: submissions were only reported to the monitor when
    // tracing sampled the step or SLO evaluation was enabled, so a
    // step queued while telemetry was dark aged from the wrong epoch
    // (queue age read 0). The enqueue timestamp must be recorded
    // unconditionally.
    ClusterConfig cfg;
    cfg.hosts = 1;
    cfg.vcus_per_host = 1;
    cfg.seed = 3;
    cfg.observability = false; // Registry, trace, tracer all dark.
    cfg.slo.enabled = false;   // No SLO evaluation either.
    ClusterSim sim(cfg);
    // One step occupies the worker; the rest wait in the backlog.
    for (uint64_t i = 0; i < 4; ++i)
        sim.submit(batchStep(i));
    sim.run(10.0, 1.0);
    EXPECT_GT(sim.conservation().backlog, 0u);
    EXPECT_GE(sim.slo().queueAge(10.0), 10.0);
}

} // namespace
} // namespace wsva::cluster
