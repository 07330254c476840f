#include "cluster/event_queue.h"

#include "common/logging.h"

namespace wsva::cluster {

namespace {

constexpr uint64_t kSlotBits = 40; // 2^40 concurrent slots is plenty.
constexpr uint64_t kSlotMask = (1ull << kSlotBits) - 1;

uint64_t
makeHandle(uint32_t slot, uint8_t generation)
{
    return (static_cast<uint64_t>(generation) << kSlotBits) | slot;
}

} // namespace

uint32_t
EventQueue::slotOf(Handle h) const
{
    return static_cast<uint32_t>(h & kSlotMask);
}

bool
EventQueue::before(uint32_t a, uint32_t b) const
{
    const Slot &sa = slots_[a];
    const Slot &sb = slots_[b];
    if (sa.time != sb.time)
        return sa.time < sb.time;
    if (sa.type != sb.type)
        return sa.type < sb.type;
    return sa.seq < sb.seq;
}

void
EventQueue::heapSwap(uint32_t a, uint32_t b)
{
    std::swap(heap_[a], heap_[b]);
    slots_[heap_[a]].heap_pos = a;
    slots_[heap_[b]].heap_pos = b;
}

void
EventQueue::siftUp(uint32_t pos)
{
    while (pos > 0) {
        const uint32_t parent = (pos - 1) / 2;
        if (!before(heap_[pos], heap_[parent]))
            break;
        heapSwap(pos, parent);
        pos = parent;
    }
}

void
EventQueue::siftDown(uint32_t pos)
{
    const uint32_t n = static_cast<uint32_t>(heap_.size());
    for (;;) {
        const uint32_t left = 2 * pos + 1;
        if (left >= n)
            break;
        uint32_t best = left;
        const uint32_t right = left + 1;
        if (right < n && before(heap_[right], heap_[left]))
            best = right;
        if (!before(heap_[best], heap_[pos]))
            break;
        heapSwap(pos, best);
        pos = best;
    }
}

EventQueue::Handle
EventQueue::schedule(double time, SimEventType type, int32_t arg)
{
    uint32_t slot;
    if (free_head_ != kNoFree) {
        slot = free_head_;
        free_head_ = slots_[slot].next_free;
    } else {
        slot = static_cast<uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.time = time;
    s.seq = next_seq_++;
    s.arg = arg;
    s.type = type;
    s.live = true;
    s.heap_pos = static_cast<uint32_t>(heap_.size());
    heap_.push_back(slot);
    siftUp(s.heap_pos);
    ++scheduled_;
    return makeHandle(slot, s.generation);
}

void
EventQueue::removeAt(uint32_t pos)
{
    const uint32_t last = static_cast<uint32_t>(heap_.size()) - 1;
    const uint32_t slot = heap_[pos];
    if (pos != last) {
        heapSwap(pos, last);
        heap_.pop_back();
        // The swapped-in element may need to move either way.
        siftDown(pos);
        siftUp(pos);
    } else {
        heap_.pop_back();
    }
    Slot &s = slots_[slot];
    s.live = false;
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
}

bool
EventQueue::pending(Handle h) const
{
    if (h == kInvalidHandle)
        return false;
    const uint32_t slot = slotOf(h);
    if (slot >= slots_.size())
        return false;
    const Slot &s = slots_[slot];
    return s.live &&
           s.generation == static_cast<uint8_t>(h >> kSlotBits);
}

double
EventQueue::timeOf(Handle h) const
{
    WSVA_ASSERT(pending(h), "timeOf() on a non-pending event");
    return slots_[slotOf(h)].time;
}

bool
EventQueue::cancel(Handle h)
{
    if (!pending(h))
        return false;
    const uint32_t slot = slotOf(h);
    removeAt(slots_[slot].heap_pos);
    ++cancelled_;
    return true;
}

double
EventQueue::nextTime() const
{
    WSVA_ASSERT(!heap_.empty(), "nextTime() on an empty queue");
    return slots_[heap_[0]].time;
}

EventQueue::Event
EventQueue::pop()
{
    WSVA_ASSERT(!heap_.empty(), "pop() on an empty queue");
    const uint32_t slot = heap_[0];
    Event ev;
    ev.time = slots_[slot].time;
    ev.type = slots_[slot].type;
    ev.arg = slots_[slot].arg;
    removeAt(0);
    ++popped_;
    return ev;
}

void
EventQueue::clear()
{
    slots_.clear();
    heap_.clear();
    free_head_ = kNoFree;
    next_seq_ = 0;
    scheduled_ = 0;
    cancelled_ = 0;
    popped_ = 0;
}

size_t
EventQueue::capacityBytes() const
{
    return slots_.capacity() * sizeof(Slot) +
           heap_.capacity() * sizeof(uint32_t);
}

} // namespace wsva::cluster
