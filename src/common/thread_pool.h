/**
 * @file
 * A fork-join thread pool whose one operation is parallelFor.
 *
 * The platform encodes many closed-GOP chunks and MOT ladder rungs
 * concurrently across encoder cores (paper Figures 2 and 5); this
 * pool is the software stand-in for that parallelism, shared by the
 * transcode pipeline, the optimizer's probes, the global router's
 * regions, and benches.
 *
 * Design: a pool of N threads is the parallelFor caller plus N-1
 * parked helpers. A fan-out publishes one index range under the
 * pool's mutex, admits min(threads, count) - 1 helpers, wakes that
 * many and drains indices on the caller too; it then waits only for
 * the helpers that joined. A parallelFor called while another
 * fan-out of the same pool is running (nested in a body, or from
 * another thread) runs inline on its own caller, so the pool cannot
 * deadlock.
 *
 * Trace integration: each helper runs a fan-out under the caller's
 * span context (common/trace.h), so spans opened inside the bodies
 * parent to the caller's current span, on every thread.
 * Helper time is attributed to the `pool/job` profiler phase.
 */

#ifndef WSVA_COMMON_THREAD_POOL_H
#define WSVA_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wsva {

struct SpanContext;

class ThreadPool
{
  public:
    /**
     * Create a pool of @p num_threads threads in total: the caller of
     * parallelFor plus num_threads - 1 helpers. 0 (the default) means
     * one thread per hardware thread.
     */
    explicit ThreadPool(int num_threads = 0);

    /** Stops and joins the helpers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Threads a fan-out runs on, the caller included. */
    int threadCount() const
    {
        return static_cast<int>(helpers_.size()) + 1;
    }

    /**
     * Run body(i) for every i in [0, count) on up to
     * min(max_threads, threadCount(), count) threads, the caller
     * among them (max_threads <= 0 means threadCount()); only the
     * helpers the fan-out admits are woken. Returns when every index
     * has completed. The first exception thrown by any body is
     * rethrown here (the remaining indices are abandoned once a
     * failure is observed). A call made while another fan-out of this
     * pool is running runs every index inline on its caller.
     */
    void parallelFor(size_t count,
                     const std::function<void(size_t)> &body,
                     int max_threads = 0);

    /**
     * Resolve a thread-count knob: <= 0 selects the hardware
     * concurrency (at least 1), anything else is taken as-is.
     */
    static int resolveThreads(int requested);

    /**
     * Process-wide pool of at least resolveThreads(@p num_threads)
     * threads, created lazily and reused across calls so repeated
     * short fan-outs (router steps, back-to-back transcodes,
     * optimizer probes) do not pay thread creation/join per
     * invocation. It only grows: a request above its size replaces
     * it once with a pool of the requested size (the shared_ptr
     * keeps the old one alive for in-flight callers), and a smaller
     * request shares it, capping its own fan-outs through
     * parallelFor's max_threads.
     */
    static std::shared_ptr<ThreadPool> shared(int num_threads);

  private:
    void helperLoop(int index);
    /** Claim and run indices of the current fan-out until none left. */
    void drain(const std::function<void(size_t)> &body, size_t count);

    std::mutex mutex_;
    std::condition_variable wake_; //!< Helpers: a fan-out or stop.
    std::condition_variable left_; //!< Caller: the last helper left.
    // The current fan-out, published and closed under mutex_.
    const std::function<void(size_t)> *body_ = nullptr;
    const SpanContext *context_ = nullptr;
    size_t count_ = 0;
    uint64_t generation_ = 0;
    bool busy_ = false;  //!< A fan-out owns the helpers.
    int slots_ = 0;      //!< Helpers the current fan-out still admits.
    int joined_ = 0;     //!< Helpers inside the current fan-out.
    bool stop_ = false;
    std::exception_ptr error_;
    // Lock-free per-fan-out cursor, reset under mutex_ before publish.
    std::atomic<size_t> next_{0};
    std::atomic<bool> failed_{false};
    std::vector<std::thread> helpers_;
};

/**
 * Run body(i) for every i in [0, count) on up to
 * ThreadPool::resolveThreads(num_threads) threads, the caller
 * included. One thread, or count <= 1, is a plain loop on the
 * caller: no pool is built and no lock is taken. Otherwise the
 * fan-out runs on ThreadPool::shared(), capped at that many threads.
 */
void parallelFor(int num_threads, size_t count,
                 const std::function<void(size_t)> &body);

} // namespace wsva

#endif // WSVA_COMMON_THREAD_POOL_H
