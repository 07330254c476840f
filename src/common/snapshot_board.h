/**
 * @file
 * Double-buffered snapshot board: one writer publishes immutable
 * snapshots while any number of scrape threads read the current one.
 *
 * publish() builds the next buffer off to the side and swaps it in
 * under a SpinLock held for one shared_ptr exchange; snapshot() copies
 * the pointer under the same lock. A reader keeps its buffer alive
 * through its own shared_ptr, so the writer never waits for a slow
 * scraper and a scrape never blocks the writer beyond a pointer swap.
 * The replaced buffer is released after the lock is dropped.
 *
 * The fleet-health rollup (/statusz), the profiler (/profilez) and the
 * global router (/statusz, /healthz) all publish through this board.
 * std::atomic<std::shared_ptr<const T>> would not remove the lock:
 * libstdc++ 12 guards it with a spin bit in the control-block pointer
 * (is_always_lock_free is false).
 */

#ifndef WSVA_COMMON_SNAPSHOT_BOARD_H
#define WSVA_COMMON_SNAPSHOT_BOARD_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "common/metrics.h" // SpinLock

namespace wsva {

/** Shared_ptr-swap snapshot board; see file comment for the contract. */
template <typename T>
class SnapshotBoard
{
  public:
    /** Publish @p value as the current snapshot. */
    void publish(T value)
    {
        auto next = std::make_shared<const T>(std::move(value));
        {
            std::lock_guard<SpinLock> lock(lock_);
            current_.swap(next);
        }
        // `next` (the old buffer) releases here, after the lock.
        publishes_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * The most recently published snapshot, or null before the first
     * publish. It is immutable and stays valid for as long as the
     * caller holds the pointer, even across later publishes.
     */
    std::shared_ptr<const T> snapshot() const
    {
        std::lock_guard<SpinLock> lock(lock_);
        return current_;
    }

    uint64_t publishes() const
    {
        return publishes_.load(std::memory_order_relaxed);
    }

  private:
    mutable SpinLock lock_;
    std::shared_ptr<const T> current_;
    std::atomic<uint64_t> publishes_{0};
};

} // namespace wsva

#endif // WSVA_COMMON_SNAPSHOT_BOARD_H
