/**
 * @file
 * FIFO ring buffer that keeps its storage.
 *
 * The SLO monitor records every submission and completion in FIFO
 * queues of small records. std::deque allocates and frees a 512-byte
 * block every 32 such records as the stream moves through it. This
 * ring grows by doubling and never shrinks, so a warmed queue streams
 * without touching the heap.
 *
 * The price is that the storage stays at the queue's high-water mark,
 * rounded up to a power of two. That suits small records; the
 * dispatch lanes, which take a whole router step's arrivals at once
 * in every region, stay std::deque for that reason (DESIGN.md §9).
 *
 * Deliberately minimal: push at the back, pop at the front, indexed
 * access in queue order. Not thread-safe.
 */

#ifndef WSVA_COMMON_RING_QUEUE_H
#define WSVA_COMMON_RING_QUEUE_H

#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace wsva {

/** Growable power-of-two FIFO ring; see file comment for contract. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    /** Elements the storage holds before the next growth. */
    size_t capacity() const { return buf_.size(); }

    /** Element @p i from the front (i < size()). */
    const T &operator[](size_t i) const
    {
        return buf_[(head_ + i) & mask()];
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    void push_back(const T &value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask()] = value;
        ++size_;
    }

    void pop_front()
    {
        WSVA_ASSERT(size_ > 0, "pop_front() on an empty ring");
        head_ = (head_ + 1) & mask();
        --size_;
    }

  private:
    static constexpr size_t kMinCapacity = 16; //!< Power of two.

    size_t mask() const { return buf_.size() - 1; }

    /** Double the storage, unwrapping the elements to the front. */
    void grow()
    {
        std::vector<T> bigger(buf_.empty() ? kMinCapacity
                                           : 2 * buf_.size());
        for (size_t i = 0; i < size_; ++i)
            bigger[i] = (*this)[i];
        buf_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace wsva

#endif // WSVA_COMMON_RING_QUEUE_H
