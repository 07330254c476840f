#include "cluster/worker.h"

#include <gtest/gtest.h>

namespace wsva::cluster {
namespace {

using wsva::video::codec::CodecType;

TranscodeStep
smallStep(uint64_t id)
{
    return makeMotStep(id, id, 0, {1280, 720}, CodecType::VP9);
}

ResourceVector
smallNeed()
{
    return ResourceVector{{kResDecodeMillicores, 500.0},
                          {kResEncodeMillicores, 2000.0}};
}

TEST(Worker, CapacityMatchesPaperMillicores)
{
    const auto cap = vcuWorkerCapacity();
    EXPECT_EQ(cap.get(kResDecodeMillicores), 3000);
    EXPECT_EQ(cap.get(kResEncodeMillicores), 10000);
}

TEST(Worker, AssignReservesAndCompletionReleases)
{
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    w.assign(smallStep(1), smallNeed(), 0.0, 10.0);
    EXPECT_EQ(w.available().get(kResEncodeMillicores), 8000);
    EXPECT_EQ(w.runningSteps(), 1u);

    auto done = w.collectFinished(9.0);
    EXPECT_TRUE(done.empty());
    done = w.collectFinished(10.0);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].ok);
    EXPECT_FALSE(done[0].corrupt);
    EXPECT_EQ(w.available().get(kResEncodeMillicores), 10000);
}

TEST(Worker, CanFitChecksAllDimensions)
{
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    ResourceVector huge{{kResEncodeMillicores, 10001.0}};
    EXPECT_FALSE(w.canFit(huge));
    EXPECT_TRUE(w.canFit(smallNeed()));
}

TEST(Worker, MultipleConcurrentSteps)
{
    // "we designed our VCUs to perform multiple MOTs and SOTs in
    // parallel to boost encoder and VCU utilization."
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    for (uint64_t i = 0; i < 5; ++i)
        w.assign(smallStep(i), smallNeed(), 0.0, 10.0);
    EXPECT_EQ(w.runningSteps(), 5u);
    EXPECT_FALSE(w.canFit(smallNeed())); // 6th would exceed encode.
}

TEST(Worker, DisabledVcuFailsInFlightWork)
{
    VcuHealth health;
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    w.bindVcu(&health);
    w.assign(smallStep(1), smallNeed(), 0.0, 10.0);
    health.disabled = true;
    auto done = w.collectFinished(1.0);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].ok);
    EXPECT_FALSE(w.canFit(smallNeed()));
}

TEST(Worker, FaultDoesNotFailWorkFinishedBeforeIt)
{
    // Step 1 finishes at t=10; step 2 would finish at t=30. The VCU
    // hard-faults at t=20. Only work still running at the fault may
    // fail — step 1's output already exists and used to be retried
    // anyway, double-counting completions.
    VcuHealth health;
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    w.bindVcu(&health);
    w.assign(smallStep(1), smallNeed(), 0.0, 10.0);
    w.assign(smallStep(2), smallNeed(), 0.0, 30.0);
    health.markFaulted(20.0);

    auto done = w.collectFinished(20.0);
    ASSERT_EQ(done.size(), 2u);
    const auto &first =
        done[0].step.id == 1 ? done[0] : done[1];
    const auto &second =
        done[0].step.id == 1 ? done[1] : done[0];
    EXPECT_TRUE(first.ok);
    EXPECT_DOUBLE_EQ(first.finish_time, 10.0);
    EXPECT_FALSE(second.ok);
    EXPECT_DOUBLE_EQ(second.finish_time, 20.0);
}

TEST(Worker, UntimestampedDisableFailsConservatively)
{
    // Setting disabled without markFaulted leaves fault_time at
    // -infinity: every in-flight step fails, even already-finished
    // ones. Callers who know the fault time must use markFaulted.
    VcuHealth health;
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    w.bindVcu(&health);
    w.assign(smallStep(1), smallNeed(), 0.0, 10.0);
    health.disabled = true;
    auto done = w.collectFinished(15.0);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].ok);
}

TEST(Worker, SilentFaultCorruptsAndSpeedsUp)
{
    VcuHealth health;
    health.silent_fault = true;
    health.speed_factor = 0.5;
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    w.bindVcu(&health);
    w.assign(smallStep(1), smallNeed(), 0.0, 10.0);
    // Finishes at 5.0 (speed factor 0.5), corrupt.
    auto done = w.collectFinished(5.0);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].ok);
    EXPECT_TRUE(done[0].corrupt);
}

TEST(Worker, GoldenScreenCatchesFaults)
{
    VcuHealth health;
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    w.bindVcu(&health);
    EXPECT_TRUE(w.goldenScreen());
    health.silent_fault = true;
    EXPECT_FALSE(w.goldenScreen());
}

TEST(Worker, AbortReturnsStepsAndRequiresScreen)
{
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    w.assign(smallStep(1), smallNeed(), 0.0, 10.0);
    w.assign(smallStep(2), smallNeed(), 0.0, 10.0);
    auto aborted = w.abortAll();
    EXPECT_EQ(aborted.size(), 2u);
    EXPECT_TRUE(w.idle());
    EXPECT_TRUE(w.needsScreen());
    EXPECT_EQ(w.available().get(kResEncodeMillicores), 10000);
}

TEST(Worker, RefusedWorkerTakesNoWork)
{
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    w.setRefused(true);
    EXPECT_FALSE(w.canFit(smallNeed()));
    w.repairReset();
    EXPECT_TRUE(w.canFit(smallNeed()));
    EXPECT_FALSE(w.needsScreen());
}

TEST(Worker, DimensionUtilization)
{
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    w.assign(smallStep(1), smallNeed(), 0.0, 10.0);
    EXPECT_DOUBLE_EQ(
        w.dimensionUtilization(resourceDimId(kResEncodeMillicores)), 0.2);
    EXPECT_NEAR(w.dimensionUtilization(resourceDimId(kResDecodeMillicores)),
                500.0 / 3000, 1e-12);
}

TEST(WorkerDeathTest, OverAssignPanics)
{
    Worker w(0, WorkerType::Vcu, vcuWorkerCapacity());
    ResourceVector huge{{kResEncodeMillicores, 20000.0}};
    EXPECT_DEATH(w.assign(smallStep(1), huge, 0.0, 1.0), "capacity");
}

} // namespace
} // namespace wsva::cluster
