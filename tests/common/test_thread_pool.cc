#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/profiler.h"

namespace wsva {
namespace {

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_GE(ThreadPool::resolveThreads(0), 1);
    EXPECT_GE(ThreadPool::resolveThreads(-3), 1);
    EXPECT_EQ(ThreadPool::resolveThreads(1), 1);
    EXPECT_EQ(ThreadPool::resolveThreads(7), 7);
}

TEST(ThreadPool, ThreadCountMatchesRequest)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3);
    ThreadPool single(1);
    EXPECT_EQ(single.threadCount(), 1);
    ThreadPool defaulted;
    EXPECT_EQ(defaulted.threadCount(), ThreadPool::resolveThreads(0));
}

TEST(ThreadPool, ParallelForRunsOnExactlyThreadCountThreads)
{
    // A pool of N threads is the caller plus N - 1 helpers. Each body
    // records its thread and waits (bounded) until N threads have
    // taken bodies, so a helper that starts late still joins; the
    // fan-out must then have run on exactly N distinct threads, the
    // caller among them.
    for (const int threads : {2, 3, 4}) {
        ThreadPool pool(threads);
        std::mutex mutex;
        std::condition_variable arrived;
        std::set<std::thread::id> seen;
        pool.parallelFor(64, [&](size_t) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                seen.insert(std::this_thread::get_id());
                arrived.notify_all();
                arrived.wait_for(lock, std::chrono::seconds(10), [&] {
                    return seen.size() >= static_cast<size_t>(threads);
                });
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
        EXPECT_EQ(seen.size(), static_cast<size_t>(threads))
            << "pool of " << threads;
        EXPECT_EQ(seen.count(std::this_thread::get_id()), 1u);
    }
}

TEST(ThreadPool, ParallelForAfterIdleGapsWakesParkedHelper)
{
    // Lost-wakeup regression: a fan-out must publish its range under
    // the mutex the helpers wait on, otherwise a helper can re-check
    // its wait predicate (seeing no work), block after the caller's
    // notify already fired, and miss the fan-out. Idle gaps park the
    // helper between fan-outs, hitting exactly that window. Each
    // fan-out's two bodies wait for each other, so both threads must
    // take part; a missed wakeup shows as a body timing out.
    ThreadPool pool(2);
    for (int round = 0; round < 200; ++round) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::atomic<int> arrived{0};
        std::atomic<bool> timed_out{false};
        pool.parallelFor(2, [&](size_t) {
            arrived.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (arrived.load() < 2) {
                if (std::chrono::steady_clock::now() > deadline) {
                    timed_out = true;
                    return;
                }
                std::this_thread::yield();
            }
        });
        ASSERT_FALSE(timed_out.load())
            << "fan-out " << round << " ran on one thread (lost wakeup)";
    }
}

TEST(ThreadPool, ParallelForZeroItems)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForOneItemRunsInline)
{
    ThreadPool pool(4);
    std::thread::id runner;
    pool.parallelFor(1, [&](size_t i) {
        EXPECT_EQ(i, 0u);
        runner = std::this_thread::get_id();
    });
    EXPECT_EQ(runner, std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(kCount,
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForMoreItemsThanWorkers)
{
    ThreadPool pool(2);
    std::atomic<long> sum{0};
    pool.parallelFor(100, [&](size_t i) {
        sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 99L * 100L / 2L);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("37");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, ParallelForUsableRepeatedly)
{
    ThreadPool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> counter{0};
        pool.parallelFor(17, [&](size_t) { counter.fetch_add(1); });
        ASSERT_EQ(counter.load(), 17);
    }
}

TEST(ThreadPool, NestedParallelForRunsInlineOnItsCaller)
{
    // A body that fans out again must not wait for helpers its own
    // fan-out holds: the inner call runs inline on the body's thread.
    ThreadPool pool(4);
    std::atomic<int> inner_runs{0};
    std::atomic<int> off_thread{0};
    pool.parallelFor(8, [&](size_t) {
        const auto outer_thread = std::this_thread::get_id();
        pool.parallelFor(8, [&](size_t) {
            inner_runs.fetch_add(1);
            if (std::this_thread::get_id() != outer_thread)
                off_thread.fetch_add(1);
        });
    });
    EXPECT_EQ(inner_runs.load(), 64);
    EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirRange)
{
    // Callers on other threads share one pool: whichever holds the
    // helpers fans out, the others run inline, and every call still
    // covers each of its indices exactly once.
    ThreadPool pool(3);
    constexpr int kCallers = 4;
    constexpr size_t kCount = 200;
    std::vector<std::vector<std::atomic<int>>> hits(kCallers);
    for (auto &h : hits)
        h = std::vector<std::atomic<int>>(kCount);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&pool, &hits, c] {
            for (int round = 0; round < 10; ++round) {
                pool.parallelFor(kCount, [&](size_t i) {
                    hits[static_cast<size_t>(c)][i].fetch_add(1);
                });
            }
        });
    }
    for (auto &t : callers)
        t.join();
    for (int c = 0; c < kCallers; ++c) {
        for (size_t i = 0; i < kCount; ++i) {
            EXPECT_EQ(hits[static_cast<size_t>(c)][i].load(), 10)
                << "caller " << c << " index " << i;
        }
    }
}

TEST(ThreadPool, FreeParallelForCoversEveryIndexAtAnyThreadCount)
{
    // wsva::parallelFor: 1 thread is a plain loop on the caller, more
    // fan out on the shared pool; both cover every index once.
    for (const int threads : {1, 3}) {
        constexpr size_t kCount = 50;
        std::vector<std::atomic<int>> hits(kCount);
        std::atomic<int> off_caller{0};
        const auto caller = std::this_thread::get_id();
        parallelFor(threads, kCount, [&](size_t i) {
            hits[i].fetch_add(1);
            if (std::this_thread::get_id() != caller)
                off_caller.fetch_add(1);
        });
        for (size_t i = 0; i < kCount; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        if (threads == 1) {
            EXPECT_EQ(off_caller.load(), 0);
        }
    }
}

TEST(ThreadPool, SharedPoolSurvivesAlternatingThreadCounts)
{
    // The process-wide pool only grows: once a 4-thread pool exists,
    // smaller and equal requests share it instead of rebuilding it,
    // and a 2-thread fan-out on it admits one helper at most.
    const auto pool = ThreadPool::shared(4);
    ASSERT_GE(pool->threadCount(), 4);
    EXPECT_EQ(ThreadPool::shared(2).get(), pool.get());
    EXPECT_EQ(ThreadPool::shared(4).get(), pool.get());

    std::mutex mutex;
    std::set<std::thread::id> seen;
    parallelFor(2, 64, [&](size_t) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), 2u);
    EXPECT_EQ(ThreadPool::shared(2).get(), pool.get());
    EXPECT_EQ(ThreadPool::shared(4).get(), pool.get());
}

TEST(ThreadPool, FanOutWakesOnlyTheHelpersItsIndicesCanUse)
{
    // A two-index fan-out has work for one helper beside the caller.
    // Every helper that joins records one pool/job call, so 200 such
    // fan-outs on a 4-thread pool record at most 200 of them; waking
    // all three helpers would let the spare two join too while the
    // bodies run.
    auto &profiler = prof::ProfileRegistry::instance();
    static const int kJobPhase = prof::phaseId("pool/job");
    ThreadPool pool(4);
    profiler.reset();
    profiler.setEnabled(true);
    for (int round = 0; round < 200; ++round) {
        pool.parallelFor(2, [](size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        });
    }
    profiler.setEnabled(false);
    uint64_t jobs = 0;
    for (const auto &phase : profiler.snapshot().phases) {
        if (phase.id == kJobPhase)
            jobs = phase.calls;
    }
    profiler.reset();
    EXPECT_LE(jobs, 200u);
}

} // namespace
} // namespace wsva
