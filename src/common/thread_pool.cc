#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"
#include "common/profiler.h"
#include "common/trace.h"

namespace wsva {

int
ThreadPool::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::shared_ptr<ThreadPool>
ThreadPool::shared(int num_threads)
{
    static std::mutex mutex;
    static std::shared_ptr<ThreadPool> pool;
    const int threads = resolveThreads(num_threads);
    std::lock_guard<std::mutex> lock(mutex);
    if (!pool || pool->threadCount() < threads)
        pool = std::make_shared<ThreadPool>(threads);
    return pool;
}

ThreadPool::ThreadPool(int num_threads)
{
    const int count = resolveThreads(num_threads);
    WSVA_ASSERT(count >= 1, "thread pool needs at least one thread");
    helpers_.reserve(static_cast<size_t>(count - 1));
    for (int i = 0; i + 1 < count; ++i)
        helpers_.emplace_back([this, i] { helperLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &h : helpers_)
        h.join();
}

void
ThreadPool::drain(const std::function<void(size_t)> &body, size_t count)
{
    while (!failed_.load(std::memory_order_acquire)) {
        const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count)
            return;
        try {
            body(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
            failed_.store(true, std::memory_order_release);
        }
    }
}

void
ThreadPool::helperLoop(int index)
{
    static const int kJobPhase = prof::phaseId("pool/job");
    prof::ProfileRegistry::instance().setThreadName(
        strformat("pool-%d", index));
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        // Join only a fan-out that is still open, not yet served and
        // short of its helpers; one that closed or filled while this
        // helper slept is skipped.
        wake_.wait(lock, [&] {
            return stop_ || (body_ != nullptr && generation_ != seen &&
                             slots_ > 0);
        });
        if (stop_)
            return;
        seen = generation_;
        --slots_;
        ++joined_;
        const auto &body = *body_;
        const size_t count = count_;
        const SpanContext context = *context_;
        lock.unlock();
        {
            ScopedSpanContext scope(context);
            prof::ProfScope prof_job(kJobPhase);
            drain(body, count);
        }
        lock.lock();
        if (--joined_ == 0)
            left_.notify_one();
    }
}

void
ThreadPool::parallelFor(size_t count,
                        const std::function<void(size_t)> &body,
                        int max_threads)
{
    // Helpers this fan-out can use: one per index beyond the caller's,
    // within the pool and the caller's thread budget.
    const int threads = max_threads > 0
                            ? std::min(max_threads, threadCount())
                            : threadCount();
    const int helpers =
        static_cast<int>(std::min(static_cast<size_t>(threads), count)) -
        1;
    const SpanContext context = currentSpanContext();
    bool fan_out = false;
    if (helpers > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        // A running fan-out holds the helpers (this call is nested in
        // one of its bodies, or comes from another thread); waiting
        // for them could deadlock, so such a call runs inline.
        fan_out = !busy_;
        if (fan_out) {
            busy_ = true;
            body_ = &body;
            context_ = &context;
            count_ = count;
            slots_ = helpers;
            ++generation_;
            error_ = nullptr;
            next_.store(0, std::memory_order_relaxed);
            failed_.store(false, std::memory_order_relaxed);
        }
    }
    if (!fan_out) {
        for (size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    for (int i = 0; i < helpers; ++i)
        wake_.notify_one();
    drain(body, count);

    std::exception_ptr error;
    {
        // Close the fan-out so late helpers stay parked, then wait
        // only for the helpers that joined: they still read body.
        std::unique_lock<std::mutex> lock(mutex_);
        body_ = nullptr;
        context_ = nullptr;
        left_.wait(lock, [this] { return joined_ == 0; });
        busy_ = false;
        error = std::move(error_);
    }
    if (error)
        std::rethrow_exception(error);
}

void
parallelFor(int num_threads, size_t count,
            const std::function<void(size_t)> &body)
{
    const int threads = ThreadPool::resolveThreads(num_threads);
    if (threads == 1 || count <= 1) {
        for (size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    ThreadPool::shared(threads)->parallelFor(count, body, threads);
}

} // namespace wsva
