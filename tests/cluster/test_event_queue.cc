/**
 * @file
 * EventQueue suite: heap ordering, deterministic tie-breaks, indexed
 * cancellation with generation-tagged handles, and slab reuse — the
 * properties the event-driven cluster core leans on.
 */

#include "cluster/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace wsva::cluster {
namespace {

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue q;
    q.schedule(3.0, SimEventType::WorkerDone, 3);
    q.schedule(1.0, SimEventType::WorkerDone, 1);
    q.schedule(2.0, SimEventType::WorkerDone, 2);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_DOUBLE_EQ(q.nextTime(), 1.0);
    EXPECT_EQ(q.pop().arg, 1);
    EXPECT_EQ(q.pop().arg, 2);
    EXPECT_EQ(q.pop().arg, 3);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesBreakByTypeThenSequence)
{
    // At one timestamp the tick phase order must be reproduced:
    // arrivals before faults before repairs before completions
    // before SLO accounting — and within a type, schedule order.
    EventQueue q;
    q.schedule(5.0, SimEventType::SloEval, 51);
    q.schedule(5.0, SimEventType::WorkerDone, 40);
    q.schedule(5.0, SimEventType::ArrivalBatch, 0);
    q.schedule(5.0, SimEventType::WorkerDone, 41);
    q.schedule(5.0, SimEventType::HardFault, 10);
    q.schedule(5.0, SimEventType::RepairDone, 30);
    q.schedule(5.0, SimEventType::SloEval, 50);
    q.schedule(5.0, SimEventType::SilentFault, 20);

    std::vector<int32_t> order;
    while (!q.empty())
        order.push_back(q.pop().arg);
    EXPECT_EQ(order, (std::vector<int32_t>{0, 10, 20, 30, 40, 41, 51, 50}));
}

TEST(EventQueue, CancelRemovesOnlyTheTargetedEvent)
{
    EventQueue q;
    auto h1 = q.schedule(1.0, SimEventType::WorkerDone, 1);
    auto h2 = q.schedule(2.0, SimEventType::WorkerDone, 2);
    auto h3 = q.schedule(3.0, SimEventType::WorkerDone, 3);
    EXPECT_TRUE(q.pending(h2));
    EXPECT_DOUBLE_EQ(q.timeOf(h2), 2.0);
    EXPECT_TRUE(q.cancel(h2));
    EXPECT_FALSE(q.pending(h2));
    EXPECT_TRUE(q.pending(h1));
    EXPECT_TRUE(q.pending(h3));
    EXPECT_EQ(q.pop().arg, 1);
    EXPECT_EQ(q.pop().arg, 3);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.cancelled(), 1u);
}

TEST(EventQueue, StaleHandlesAreDetected)
{
    EventQueue q;
    auto h1 = q.schedule(1.0, SimEventType::WorkerDone, 1);
    (void)q.pop(); // h1's event fired; its slot goes to the free list.
    EXPECT_FALSE(q.pending(h1));
    EXPECT_FALSE(q.cancel(h1));

    // The slot is reused by a new event; the old handle must still be
    // stale and cancelling it must not disturb the new event.
    auto h2 = q.schedule(2.0, SimEventType::WorkerDone, 2);
    EXPECT_FALSE(q.cancel(h1));
    EXPECT_TRUE(q.pending(h2));
    EXPECT_EQ(q.pop().arg, 2);

    // Double cancel is a no-op too.
    auto h3 = q.schedule(3.0, SimEventType::WorkerDone, 3);
    EXPECT_TRUE(q.cancel(h3));
    EXPECT_FALSE(q.cancel(h3));
    EXPECT_EQ(q.cancelled(), 1u);
}

TEST(EventQueue, InvalidHandleIsNeverPending)
{
    EventQueue q;
    EXPECT_FALSE(q.pending(EventQueue::kInvalidHandle));
    EXPECT_FALSE(q.cancel(EventQueue::kInvalidHandle));
}

TEST(EventQueue, RandomizedAgainstReferenceOrdering)
{
    // Fuzz: random schedules and cancels; what remains must pop in
    // exactly the reference order (stable sort by time, type, seq).
    wsva::Rng rng(1234);
    EventQueue q;
    struct Ref
    {
        double time;
        SimEventType type;
        uint64_t seq;
        int32_t arg;
        EventQueue::Handle handle;
        bool cancelled = false;
    };
    std::vector<Ref> refs;
    for (int i = 0; i < 5000; ++i) {
        const double t = rng.uniformReal(0.0, 100.0);
        const auto type =
            static_cast<SimEventType>(rng.uniformInt(6));
        auto h = q.schedule(t, type, i);
        refs.push_back({t, type, static_cast<uint64_t>(i), i, h});
        if (rng.bernoulli(0.3)) {
            const auto victim = rng.uniformInt(static_cast<uint32_t>(
                refs.size()));
            if (!refs[victim].cancelled) {
                EXPECT_TRUE(q.cancel(refs[victim].handle));
                refs[victim].cancelled = true;
            }
        }
    }
    std::vector<Ref> expect;
    for (const auto &r : refs) {
        if (!r.cancelled)
            expect.push_back(r);
    }
    std::sort(expect.begin(), expect.end(), [](const Ref &a, const Ref &b) {
        if (a.time != b.time)
            return a.time < b.time;
        if (a.type != b.type)
            return a.type < b.type;
        return a.seq < b.seq;
    });
    EXPECT_EQ(q.size(), expect.size());
    for (const auto &r : expect) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.pop().arg, r.arg);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.scheduled(), 5000u);
    EXPECT_EQ(q.popped() + q.cancelled(), 5000u);
}

TEST(EventQueue, SlabReusesFreedSlots)
{
    // Steady-state schedule/pop cycles must not grow the slab: the
    // event engine runs millions of events through a queue whose
    // pending set stays small.
    EventQueue q;
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 4; ++i)
            q.schedule(static_cast<double>(round) + i * 0.1,
                       SimEventType::WorkerDone, i);
        for (int i = 0; i < 4; ++i)
            (void)q.pop();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_LE(q.capacityBytes(), 4096u);
    EXPECT_EQ(q.scheduled(), 4000u);
    EXPECT_EQ(q.popped(), 4000u);
}

TEST(EventQueue, ClearBehavesLikeANewQueueAndKeepsStorage)
{
    // ClusterSim reuses one queue across run() calls; a cleared queue
    // must pop (and hand out handles) exactly as a new one does, since
    // same-time order rests on the schedule sequence.
    const auto fill = [](EventQueue &q) {
        std::vector<EventQueue::Handle> handles;
        for (int i = 0; i < 64; ++i)
            handles.push_back(q.schedule(static_cast<double>(i % 5),
                                         SimEventType::WorkerDone, i));
        q.cancel(handles[7]);
        return handles;
    };
    EventQueue used;
    fill(used);
    for (int i = 0; i < 20; ++i)
        (void)used.pop();
    const size_t bytes = used.capacityBytes();
    used.clear();
    EXPECT_TRUE(used.empty());
    EXPECT_EQ(used.scheduled(), 0u);
    EXPECT_EQ(used.cancelled(), 0u);
    EXPECT_EQ(used.popped(), 0u);
    EXPECT_EQ(used.capacityBytes(), bytes);

    EventQueue fresh;
    EXPECT_EQ(fill(used), fill(fresh));
    while (!fresh.empty()) {
        ASSERT_FALSE(used.empty());
        const auto a = used.pop();
        const auto b = fresh.pop();
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.type, b.type);
        EXPECT_EQ(a.arg, b.arg);
    }
    EXPECT_TRUE(used.empty());
    EXPECT_EQ(used.capacityBytes(), bytes);
}

} // namespace
} // namespace wsva::cluster
