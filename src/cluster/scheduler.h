/**
 * @file
 * Work schedulers (Section 3.3.3, Figure 6).
 *
 * The paper moved the video processing platform from a uniform CPU
 * cost model ("single slot per graph step") to an online multi-
 * dimensional bin-packing scheduler with a sharded in-memory
 * availability cache and a first-fit worker picker. Both schedulers
 * are implemented here so the ablation bench can compare them.
 */

#ifndef WSVA_CLUSTER_SCHEDULER_H
#define WSVA_CLUSTER_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "cluster/worker.h"
#include "common/metrics.h"

namespace wsva::cluster {

/**
 * The cluster's work queue, deadline-aware. Two dispatch lanes plus a
 * parking lot:
 *
 *  - EDF lane: steps carrying a deadline (live segments), ordered
 *    earliest-deadline-first with ties broken by arrival sequence —
 *    deterministic, and FIFO within one deadline cohort.
 *  - FIFO lane: everything else, in arrival order with push_front
 *    retry semantics — byte-for-byte the plain std::deque the sim
 *    used before deadlines existed. With no deadline steps queued the
 *    queue *is* that deque, which is what keeps fault-free tick/event
 *    ledger equality intact.
 *  - Shed lot: batch-priority steps parked under live surge. Parked
 *    steps stop competing for dispatch but stay in the conservation
 *    ledger (the `shed` term); unparkAll() returns them to the FIFO
 *    lane in their original order.
 *
 * front()/pop_front() always serve the EDF lane first: a live segment
 * with ten seconds of slack outranks any amount of queued batch work.
 */
class DispatchQueue
{
  public:
    /** Queue a newly arrived step. */
    void push_back(const TranscodeStep &step);

    /** Re-queue a retried step ahead of its lane. */
    void push_front(const TranscodeStep &step);

    /** Next step to dispatch (EDF lane first). Queue must not be
     *  empty. */
    const TranscodeStep &front() const;

    /** Drop the step front() returned. */
    void pop_front();

    /** Steps in the dispatch lanes (excludes the shed lot). */
    size_t size() const { return edf_.size() + fifo_.size(); }
    bool empty() const { return edf_.empty() && fifo_.empty(); }

    /** Deadline-carrying steps waiting in the EDF lane. */
    size_t deadlineSize() const { return edf_.size(); }

    /** Park every Batch-priority step in the FIFO lane.
     *  @return how many steps moved to the shed lot. */
    size_t parkBatch();

    /** Park one already-dequeued step (a preempted running step). */
    void parkStep(const TranscodeStep &step);

    /** Return every shed step to the FIFO lane, oldest first.
     *  @return how many steps came back. */
    size_t unparkAll();

    /** Steps sitting in the shed lot. */
    size_t shedSize() const { return shed_.size(); }

    /**
     * Remove and return every queued step — dispatch lanes in dispatch
     * order (EDF lane first, then FIFO), then the shed lot oldest
     * first. Used by the global router to expel a quarantined region's
     * backlog for rerouting; the caller owns the ledger consequences
     * (the steps leave this cluster's conservation terms).
     */
    std::vector<TranscodeStep> drainAll();

  private:
    /** EDF heap entry; min-heap on (deadline, seq). */
    struct EdfEntry
    {
        TranscodeStep step;
        uint64_t seq = 0;

        /** std::push_heap is a max-heap; invert for min-(deadline,seq). */
        bool operator<(const EdfEntry &other) const
        {
            if (step.deadline_time != other.step.deadline_time)
                return step.deadline_time > other.step.deadline_time;
            return seq > other.seq;
        }
    };

    std::vector<EdfEntry> edf_; //!< Heap (std::push_heap/pop_heap).
    std::deque<TranscodeStep> fifo_;
    std::deque<TranscodeStep> shed_;
    uint64_t next_seq_ = 0;
};

/** Scheduling statistics. */
struct SchedulerStats
{
    uint64_t placed = 0;
    uint64_t rejected = 0; //!< No worker could take the request.
};

/** Common picker interface. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Pick a worker for a step needing @p need. Returns nullptr when
     * nothing fits (caller re-queues).
     */
    virtual Worker *pick(const ResourceVector &need) = 0;

    /**
     * Re-evaluate a worker whose fitness changed *outside* its own
     * mutation paths — VCU health flips live in the host model, so
     * fault injection must tell the scheduler explicitly. No-op for
     * schedulers without derived state.
     */
    virtual void refresh(Worker &worker) { (void)worker; }

    /**
     * The resources actually reserved on the worker for a request of
     * @p need: the request itself for the bin-packing scheduler, the
     * (element-wise max with the) fixed slot bundle for the legacy
     * scheduler.
     */
    virtual ResourceVector reservationFor(const ResourceVector &need) const;

    const SchedulerStats &stats() const { return stats_; }

    /** Mirror placement decisions into @p metrics (not owned; may be
     *  null). Counters: sched.placed / sched.rejected. */
    void attachMetrics(wsva::MetricsRegistry *metrics);

  protected:
    /** Count one placement (success or rejection) in stats_ and the
     *  attached registry. */
    void recordPick(bool placed);

    SchedulerStats stats_;
    // pick() runs for every backlog entry every dispatch pass; the
    // counters are pre-resolved handles so the hot path never locks.
    wsva::CounterHandle placed_counter_;
    wsva::CounterHandle rejected_counter_;
};

/**
 * Segment-tree availability index over a fixed worker set. Interior
 * nodes hold the per-dimension *maximum* available amount across
 * their subtree (ineligible workers — refused or on a disabled VCU —
 * carry -1 in every dimension); a leftmost-first DFS that prunes
 * subtrees whose max cannot satisfy the request yields exactly the
 * first-fit-by-worker-number answer in O(dims x log n) typical, and
 * rejects an unsatisfiable request at the root in O(dims). The
 * linear first-fit scan this replaces is O(n) per placement — the
 * dominant cost at 200k workers.
 */
class AvailabilityIndex
{
  public:
    /** Index @p workers (kept in the given order; not owned). */
    void build(std::vector<Worker *> workers);

    /** Recompute the leaf for the worker at position @p pos. */
    void update(int pos);

    /** Leftmost worker that fits @p need, or nullptr. */
    Worker *firstFit(const ResourceVector &need) const;

    bool built() const { return !workers_.empty(); }

    /** Bytes of tree storage (bench memory accounting). */
    size_t capacityBytes() const;

  private:
    void writeLeaf(int pos);
    Worker *descend(uint32_t node, const double *need_amt,
                    const ResourceVector &need) const;

    std::vector<Worker *> workers_;
    std::vector<uint16_t> dims_; //!< Indexed dimension ids, sorted.
    uint32_t leaves_ = 0;        //!< Worker count padded to 2^k.
    std::vector<double> tree_;   //!< 2 * leaves_ nodes x dims_ values.
};

/**
 * Multi-dimensional bin-packing scheduler: maintains an availability
 * cache of all workers and their current capacity across all
 * dimensions, and places work first-fit by worker number (Figure 6).
 * The load-maximizing greedy policy concentrates work so that
 * trailing workers go fully idle and can be stopped and reallocated
 * to other pools.
 *
 * Placement is a linear first-fit scan by default; enableIndex()
 * switches to the segment-tree availability index (identical picks,
 * O(log n) instead of O(n)) and keeps it coherent by listening to
 * every worker's availability mutations. ClusterSim always enables
 * the index; standalone users that mutate VcuHealth directly without
 * calling refresh() should stay linear.
 */
class BinPackScheduler : public Scheduler, private WorkerAvailabilityListener
{
  public:
    explicit BinPackScheduler(std::vector<Worker *> workers);
    ~BinPackScheduler() override;

    Worker *pick(const ResourceVector &need) override;

    /** Build the availability index and attach worker listeners. */
    void enableIndex();

    /** True when placements use the segment-tree index. */
    bool indexed() const { return indexed_; }

    void refresh(Worker &worker) override;

    /** Workers currently fully idle (candidates to stop). */
    int idleWorkers() const;

    /** Bytes held by the availability index (0 when linear). */
    size_t indexBytes() const { return index_.capacityBytes(); }

  private:
    void onWorkerAvailabilityChanged(Worker &worker, int tag) override;

    std::vector<Worker *> workers_;
    std::vector<int> pos_by_id_; //!< Worker id -> index position.
    AvailabilityIndex index_;
    bool indexed_ = false;
};

/**
 * Legacy one-dimensional slot scheduler: each worker advertises a
 * fixed number of slots sized for the configured worst-case step;
 * every step consumes one slot regardless of its actual size.
 */
class SlotScheduler : public Scheduler
{
  public:
    /**
     * @param slot_need The fixed per-slot resource bundle (worst-case
     *        step sizing under the uniform cost model).
     */
    SlotScheduler(std::vector<Worker *> workers, ResourceVector slot_need);

    Worker *pick(const ResourceVector &need) override;
    ResourceVector reservationFor(const ResourceVector &need) const override;

    const ResourceVector &slotNeed() const { return slot_need_; }

  private:
    std::vector<Worker *> workers_;
    ResourceVector slot_need_;
};

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_SCHEDULER_H
