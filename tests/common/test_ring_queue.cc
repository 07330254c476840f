/**
 * @file
 * RingQueue unit tests: the ring backs the SLO monitor's per-step
 * queues and the TraceLog and Tracer record rings, so it must behave
 * exactly like the std::deque it replaced (checked differentially
 * through wrap-around and growth) while keeping its storage once
 * warmed.
 */

#include <cstdint>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "common/ring_queue.h"
#include "common/rng.h"

using wsva::RingQueue;

TEST(RingQueue, DifferentialAgainstStdDeque)
{
    // Seeded push/pop traffic whose live size wanders up and down, so
    // the ring wraps at every capacity it grows through; checked
    // element by element against std::deque.
    wsva::Rng rng(42);
    RingQueue<uint64_t> ring;
    std::deque<uint64_t> ref;
    for (int op = 0; op < 20000; ++op) {
        // Phases of net growth and net drain, 500 ops each.
        const uint64_t push_odds = (op / 500) % 2 == 0 ? 7 : 3;
        if (ref.empty() || rng.nextU64() % 10 < push_odds) {
            const uint64_t value = rng.nextU64();
            ring.push_back(value);
            ref.push_back(value);
        } else {
            ASSERT_EQ(ring.front(), ref.front()) << "op " << op;
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size()) << "op " << op;
        if (op % 97 == 0) {
            std::vector<uint64_t> seen;
            for (size_t i = 0; i < ring.size(); ++i)
                seen.push_back(ring[i]);
            ASSERT_EQ(seen, std::vector<uint64_t>(ref.begin(), ref.end()))
                << "op " << op;
        }
    }
}

TEST(RingQueue, SteadyStreamKeepsItsStorage)
{
    // A FIFO that streams far more elements than it ever holds must
    // stop growing once warmed.
    RingQueue<int> ring;
    for (int i = 0; i < 100; ++i)
        ring.push_back(i);
    const size_t capacity = ring.capacity();
    EXPECT_GE(capacity, 100u);
    for (int i = 100; i < 100000; ++i) {
        ring.pop_front();
        ring.push_back(i);
    }
    EXPECT_EQ(ring.size(), 100u);
    EXPECT_EQ(ring.front(), 100000 - 100);
    EXPECT_EQ(ring[99], 100000 - 1);
    EXPECT_EQ(ring.capacity(), capacity);
}

TEST(RingQueue, ClearEmptiesAndKeepsStorage)
{
    RingQueue<int> ring;
    for (int i = 0; i < 40; ++i)
        ring.push_back(i);
    ring.pop_front();
    const size_t capacity = ring.capacity();
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), capacity);
    ring.push_back(7);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.front(), 7);
}
