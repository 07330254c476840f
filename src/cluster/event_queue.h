/**
 * @file
 * Indexed min-heap event queue for the discrete-event cluster core.
 *
 * The cluster simulator pays O(log E) per *event* and nothing for a
 * quiet fleet. This queue is its backbone: a binary min-heap of
 * (time, type, seq) keys over a slab of event records, with an index
 * from slab slot to heap position so any pending event can be
 * cancelled in O(log E). The cluster uses cancellation for worker
 * completion events (a new assignment can pull a worker's earliest
 * finish time earlier) and for draining a host's workers when it
 * enters repair.
 *
 * Ordering is fully deterministic: ties on time break by event type
 * (arrivals, fault injection, repairs, completions, SLO accounting,
 * telemetry publish), then by a monotonically increasing schedule
 * sequence number. Handles are slab indices tagged with a generation
 * byte so a stale cancel of a slot that was already popped and reused
 * is detected instead of silently removing the wrong event.
 */

#ifndef WSVA_CLUSTER_EVENT_QUEUE_H
#define WSVA_CLUSTER_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsva::cluster {

/**
 * Event kinds, in tie-break priority order. At equal timestamps the
 * queue pops lower-valued types first.
 */
enum class SimEventType : uint8_t {
    ArrivalBatch = 0,  //!< Pull a batch from the arrival function.
    HardFault = 1,     //!< Fleet-level hard-fault process fires.
    SilentFault = 2,   //!< Fleet-level silent-fault process fires.
    RepairDone = 3,    //!< A host's repair completes.
    WorkerDone = 4,    //!< A worker's earliest running step finishes.
    SloEval = 5,       //!< SLO window accounting boundary.
    Publish = 6,       //!< Fleet-health rollup + telemetry sample.
};

/** Indexed binary min-heap of simulation events. Not thread-safe. */
class EventQueue
{
  public:
    /** Opaque reference to a pending event (slot | generation tag). */
    using Handle = uint64_t;
    static constexpr Handle kInvalidHandle = ~0ull;

    /** A popped event. */
    struct Event
    {
        double time = 0.0;
        SimEventType type = SimEventType::ArrivalBatch;
        int32_t arg = 0; //!< Worker/host id, or unused.
    };

    /** Schedule an event; returns a handle valid until pop/cancel. */
    Handle schedule(double time, SimEventType type, int32_t arg = 0);

    /**
     * Cancel a pending event. Safe to call with a handle whose event
     * already fired (or was already cancelled): the generation tag
     * detects staleness and the call becomes a no-op, returning false.
     */
    bool cancel(Handle h);

    /** True when @p h still refers to a pending event. */
    bool pending(Handle h) const;

    /** Scheduled time of a pending event (asserts pending(h)). */
    double timeOf(Handle h) const;

    bool empty() const { return heap_.empty(); }
    size_t size() const { return heap_.size(); }

    /** Earliest pending event time (asserts non-empty). */
    double nextTime() const;

    /** Pop the earliest event (asserts non-empty). */
    Event pop();

    uint64_t scheduled() const { return scheduled_; }
    uint64_t cancelled() const { return cancelled_; }
    uint64_t popped() const { return popped_; }

    /** Bytes of backing storage (bench memory accounting). */
    size_t capacityBytes() const;

  private:
    struct Slot
    {
        double time = 0.0;
        uint64_t seq = 0;        //!< Global schedule order (tie-break).
        int32_t arg = 0;
        SimEventType type = SimEventType::ArrivalBatch;
        uint8_t generation = 0;  //!< Bumped on free; tags handles.
        uint32_t heap_pos = 0;   //!< Position in heap_ while pending.
        uint32_t next_free = kNoFree;
        bool live = false;
    };

    static constexpr uint32_t kNoFree = ~0u;

    bool before(uint32_t a, uint32_t b) const;
    void siftUp(uint32_t pos);
    void siftDown(uint32_t pos);
    void heapSwap(uint32_t a, uint32_t b);
    void removeAt(uint32_t pos);
    uint32_t slotOf(Handle h) const;

    std::vector<Slot> slots_;
    std::vector<uint32_t> heap_; //!< Heap of slot indices.
    uint32_t free_head_ = kNoFree;
    uint64_t next_seq_ = 0;
    uint64_t scheduled_ = 0;
    uint64_t cancelled_ = 0;
    uint64_t popped_ = 0;
};

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_EVENT_QUEUE_H
