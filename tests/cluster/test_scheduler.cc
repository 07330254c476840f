#include "cluster/scheduler.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"

namespace wsva::cluster {
namespace {

using wsva::video::codec::CodecType;

class SchedulerTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (int i = 0; i < 4; ++i) {
            workers_.push_back(std::make_unique<Worker>(
                i, WorkerType::Vcu, vcuWorkerCapacity()));
        }
        for (auto &w : workers_)
            raw_.push_back(w.get());
    }

    TranscodeStep
    step(uint64_t id)
    {
        return makeMotStep(id, id, 0, {1920, 1080}, CodecType::VP9);
    }

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<Worker *> raw_;
};

TEST_F(SchedulerTest, FirstFitByWorkerNumber)
{
    BinPackScheduler sched(raw_);
    ResourceVector need{{kResEncodeMillicores, 3750.0}};
    Worker *w = sched.pick(need);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->id(), 0);
}

TEST_F(SchedulerTest, SkipsWorkerLackingOneDimension)
{
    // Paper Figure 6: worker 0 has no decode left -> worker 1 wins.
    ResourceVector drain_decode{{kResDecodeMillicores, 3000.0}};
    raw_[0]->assign(step(1), drain_decode, 0.0, 100.0);

    BinPackScheduler sched(raw_);
    ResourceVector need{{kResDecodeMillicores, 500.0},
                        {kResEncodeMillicores, 3750.0}};
    Worker *w = sched.pick(need);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->id(), 1);
}

TEST_F(SchedulerTest, PacksBeforeSpreading)
{
    // Greedy load-maximizing: repeated small requests all land on
    // worker 0 until it is full, leaving trailing workers idle as
    // stop candidates.
    BinPackScheduler sched(raw_);
    ResourceVector need{{kResEncodeMillicores, 2500.0}};
    for (int i = 0; i < 4; ++i) {
        Worker *w = sched.pick(need);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->id(), 0);
        w->assign(step(static_cast<uint64_t>(i)), need, 0.0, 100.0);
    }
    Worker *w = sched.pick(need);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->id(), 1);
    EXPECT_EQ(sched.idleWorkers(), 3);
}

TEST_F(SchedulerTest, RejectsWhenNothingFits)
{
    BinPackScheduler sched(raw_);
    ResourceVector huge{{kResEncodeMillicores, 50000.0}};
    EXPECT_EQ(sched.pick(huge), nullptr);
    EXPECT_EQ(sched.stats().rejected, 1u);
}

TEST_F(SchedulerTest, BinPackReservationEqualsNeed)
{
    BinPackScheduler sched(raw_);
    ResourceVector need{{kResEncodeMillicores, 1234.0}};
    EXPECT_EQ(sched.reservationFor(need), need);
}

TEST_F(SchedulerTest, SlotSchedulerWastesCapacity)
{
    // Slot sized for a worst-case step: a VCU fits only 2 slots even
    // for tiny requests, while bin packing fits many more.
    ResourceVector slot{{kResDecodeMillicores, 1000.0},
                        {kResEncodeMillicores, 5000.0}};
    SlotScheduler slots(raw_, slot);
    ResourceVector tiny{{kResDecodeMillicores, 100.0},
                        {kResEncodeMillicores, 500.0}};

    int placed_on_w0 = 0;
    for (int i = 0; i < 10; ++i) {
        Worker *w = slots.pick(tiny);
        ASSERT_NE(w, nullptr);
        if (w->id() != 0)
            break;
        w->assign(step(static_cast<uint64_t>(i)),
                  slots.reservationFor(tiny), 0.0, 100.0);
        ++placed_on_w0;
    }
    EXPECT_EQ(placed_on_w0, 2); // 2 x 5000 enc millicores = full.
}

TEST_F(SchedulerTest, SlotReservationIsElementwiseMax)
{
    ResourceVector slot{{kResEncodeMillicores, 5000.0}};
    SlotScheduler slots(raw_, slot);
    ResourceVector big{{kResEncodeMillicores, 7000.0},
                       {kResDecodeMillicores, 400.0}};
    const auto reservation = slots.reservationFor(big);
    EXPECT_EQ(reservation.get(kResEncodeMillicores), 7000);
    EXPECT_EQ(reservation.get(kResDecodeMillicores), 400);
}

TEST_F(SchedulerTest, DisabledVcuSkipped)
{
    VcuHealth dead;
    dead.disabled = true;
    raw_[0]->bindVcu(&dead);
    BinPackScheduler sched(raw_);
    ResourceVector need{{kResEncodeMillicores, 1000.0}};
    Worker *w = sched.pick(need);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->id(), 1);
}

TEST(AvailabilityIndex, IndexedPicksMatchLinearScanUnderChurn)
{
    // The segment-tree index must give *identical* first-fit answers
    // to the linear scan through an arbitrary mix of assigns,
    // completions, aborts, health flips, quarantines, and repairs.
    constexpr int kWorkers = 57; // Odd size: exercises tree padding.
    std::vector<std::unique_ptr<Worker>> indexed_own, linear_own;
    std::vector<Worker *> indexed, linear;
    std::vector<VcuHealth> indexed_health(kWorkers), linear_health(kWorkers);
    for (int i = 0; i < kWorkers; ++i) {
        indexed_own.push_back(std::make_unique<Worker>(
            i, WorkerType::Vcu, vcuWorkerCapacity()));
        linear_own.push_back(std::make_unique<Worker>(
            i, WorkerType::Vcu, vcuWorkerCapacity()));
        indexed_own[i]->bindVcu(&indexed_health[i]);
        linear_own[i]->bindVcu(&linear_health[i]);
        indexed.push_back(indexed_own[i].get());
        linear.push_back(linear_own[i].get());
    }
    BinPackScheduler indexed_sched(indexed);
    indexed_sched.enableIndex();
    ASSERT_TRUE(indexed_sched.indexed());
    BinPackScheduler linear_sched(linear);
    ASSERT_FALSE(linear_sched.indexed());

    wsva::Rng rng(99);
    double now = 0.0;
    uint64_t next_step = 0;
    int placed = 0, rejected = 0;
    std::vector<StepOutcome> outcomes;
    for (int op = 0; op < 4000; ++op) {
        now += 0.25;
        const int kind = rng.uniformRange(0, 9);
        if (kind < 6) {
            // Place a random-shaped request through both schedulers.
            ResourceVector need{
                {kResEncodeMillicores,
                 rng.uniformReal(100.0, 9000.0)},
                {kResDecodeMillicores, rng.uniformReal(0.0, 2800.0)},
                {kResDramBytes, rng.uniformReal(1e8, 4e9)}};
            Worker *a = indexed_sched.pick(need);
            Worker *b = linear_sched.pick(need);
            if (a == nullptr) {
                EXPECT_EQ(b, nullptr) << "op " << op;
                ++rejected;
                continue;
            }
            ASSERT_NE(b, nullptr) << "op " << op;
            ASSERT_EQ(a->id(), b->id()) << "op " << op;
            const double service = rng.uniformReal(1.0, 20.0);
            TranscodeStep s = makeMotStep(next_step, next_step, 0,
                                          {1920, 1080}, CodecType::VP9);
            ++next_step;
            a->assign(s, need, now, service);
            b->assign(s, need, now, service);
            ++placed;
        } else if (kind < 8) {
            // Advance time on one worker pair: collect completions.
            const int v = rng.uniformRange(0, kWorkers - 1);
            indexed[v]->collectFinished(now, outcomes);
            linear[v]->collectFinished(now, outcomes);
        } else if (kind == 8) {
            // Health churn: fault or un-fault one VCU.
            const int v = rng.uniformRange(0, kWorkers - 1);
            if (indexed_health[v].disabled) {
                indexed_health[v] = VcuHealth{};
                linear_health[v] = VcuHealth{};
                indexed[v]->repairReset();
                linear[v]->repairReset();
            } else {
                indexed_health[v].markFaulted(now);
                linear_health[v].markFaulted(now);
                (void)indexed[v]->abortAll();
                (void)linear[v]->abortAll();
                // Health lives outside the worker: the index only
                // hears about it via refresh().
                indexed_sched.refresh(*indexed[v]);
                linear_sched.refresh(*linear[v]);
            }
        } else {
            // Quarantine toggle.
            const int v = rng.uniformRange(0, kWorkers - 1);
            const bool refuse = !indexed[v]->refused();
            indexed[v]->setRefused(refuse);
            linear[v]->setRefused(refuse);
        }
    }
    // The churn must have exercised both outcomes.
    EXPECT_GT(placed, 100);
    EXPECT_GT(rejected, 10);
}

TEST(AvailabilityIndex, RootRejectIsCheapAndCorrect)
{
    // A request larger than every worker's headroom must be rejected
    // (at the root, without touching leaves — behaviorally: still
    // rejected, and stats count it).
    std::vector<std::unique_ptr<Worker>> own;
    std::vector<Worker *> raw;
    for (int i = 0; i < 16; ++i) {
        own.push_back(std::make_unique<Worker>(i, WorkerType::Vcu,
                                               vcuWorkerCapacity()));
        raw.push_back(own[i].get());
    }
    BinPackScheduler sched(raw);
    sched.enableIndex();
    ResourceVector huge{{kResEncodeMillicores, 50000.0}};
    EXPECT_EQ(sched.pick(huge), nullptr);
    EXPECT_EQ(sched.stats().rejected, 1u);
    EXPECT_GT(sched.indexBytes(), 0u);

    // A dimension no capacity defines can never fit.
    ResourceVector exotic{{"exotic_dim", 1.0}};
    EXPECT_EQ(sched.pick(exotic), nullptr);
}

} // namespace
} // namespace wsva::cluster
