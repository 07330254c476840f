/**
 * @file
 * Worker processes (Section 3.1, 3.3.3).
 *
 * A VCU worker has exclusive access to one VCU and runs a process
 * per transcode to constrain errors to a single step. Workers expose
 * named resource capacities to the scheduler, execute assigned steps
 * for their service time, and surface VCU faults: a worker whose VCU
 * develops a silent fault completes work *faster* and corrupt (the
 * black-holing hazard of Section 4.4).
 */

#ifndef WSVA_CLUSTER_WORKER_H
#define WSVA_CLUSTER_WORKER_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/resources.h"
#include "cluster/work.h"

namespace wsva {
class MetricsRegistry;
class TraceLog;
} // namespace wsva

namespace wsva::cluster {

/** Worker flavors. */
enum class WorkerType : int {
    Vcu = 0, //!< Exclusive access to one VCU.
    Cpu = 1, //!< Software transcoding / non-transcoding steps.
};

/** Health of the VCU a worker is bound to. */
struct VcuHealth
{
    bool disabled = false;      //!< Fault manager pulled it.
    bool silent_fault = false;  //!< Produces corrupt output, fast.
    /** Service-time multiplier; silent faults often run "fast". */
    double speed_factor = 1.0;
    /**
     * Sim time the hard fault hit. Steps whose finish time precedes
     * it completed before the device died and must not be failed or
     * retried. Defaults to -infinity ("faulted since forever") so a
     * caller that sets `disabled` without a timestamp conservatively
     * fails everything in flight.
     */
    double fault_time = -std::numeric_limits<double>::infinity();

    /** Mark the VCU hard-faulted at @p now. */
    void markFaulted(double now)
    {
        disabled = true;
        fault_time = now;
    }
};

/** Outcome of one step execution. */
struct StepOutcome
{
    TranscodeStep step;
    bool ok = true;        //!< False: hardware error, must retry.
    bool corrupt = false;  //!< Completed but output is garbage.
    double start_time = 0.0; //!< When the worker began the step.
    double finish_time = 0.0;
};

class Worker;

/**
 * Observer for worker availability changes. The bin-packing
 * scheduler's availability index registers itself here so that every
 * assign/collect/abort/reset keeps the index coherent without the
 * sim having to remember which mutations matter. Callers that mutate
 * a worker's VCU health directly (fault injection) must additionally
 * call Scheduler::refresh(), since health lives outside the worker.
 */
class WorkerAvailabilityListener
{
  public:
    virtual ~WorkerAvailabilityListener() = default;
    /** @p tag is the value registered alongside the listener. */
    virtual void onWorkerAvailabilityChanged(Worker &worker, int tag) = 0;
};

/** One worker process. */
class Worker
{
  public:
    Worker(int id, WorkerType type, ResourceVector capacity);

    int id() const { return id_; }
    WorkerType type() const { return type_; }
    const ResourceVector &capacity() const { return capacity_; }
    const ResourceVector &available() const { return available_; }

    /** Bind to VCU health state (owned by the host model). */
    void bindVcu(VcuHealth *health) { vcu_ = health; }
    const VcuHealth *vcu() const { return vcu_; }

    /**
     * Attach observability sinks (both optional, not owned; must
     * outlive the worker). Assignments emit step-scheduled trace
     * events; completions feed the per-step service-time histogram.
     */
    void attachObservability(wsva::MetricsRegistry *metrics,
                             wsva::TraceLog *trace)
    {
        metrics_ = metrics;
        trace_ = trace;
    }

    /**
     * Worker startup screening: functional reset + golden transcodes
     * (Section 4.4). A worker must refuse to start on a VCU with a
     * persistent fault. @return true if the worker may serve.
     */
    bool goldenScreen() const;

    /** True if @p need fits in the current availability. */
    bool canFit(const ResourceVector &need) const;

    /**
     * Assign a step; reserves resources until completion.
     * @param now Current simulation time (seconds).
     * @param service_seconds Nominal service time (scaled by the
     *        VCU's speed factor).
     */
    void assign(const TranscodeStep &step, const ResourceVector &need,
                double now, double service_seconds);

    /**
     * Collect steps finishing at or before @p now, releasing their
     * resources. On a disabled VCU only the steps whose finish time
     * is at or after the recorded fault time fail (ok = false) —
     * work that finished before the device died already produced its
     * output and must not be retried. Steps on a silently faulty VCU
     * complete corrupt.
     *
     * @param out Replaced with the outcomes, in running order. The
     *        caller owns and reuses it, so a warmed buffer makes the
     *        per-completion path allocation-free.
     */
    void collectFinished(double now, std::vector<StepOutcome> &out);

    /**
     * Abort everything in flight (black-holing mitigation). The
     * worker process restarts afterwards, so it must golden-screen
     * its VCU before taking new work (needsScreen() becomes true).
     */
    std::vector<TranscodeStep> abortAll();

    /** Batch-priority steps currently running here. */
    size_t batchRunning() const { return batch_running_; }

    /**
     * Would @p need fit if every Batch-priority running step were
     * preempted? The shedding policy asks this before paying for a
     * preemption, so no batch work is ever evicted in vain.
     */
    bool canFitWithBatchPreempted(const ResourceVector &need) const;

    /**
     * Preempt (deschedule) every Batch-priority running step,
     * releasing its resources. Unlike abortAll() this is a policy
     * decision, not a failure: the worker process keeps running and
     * needs no golden screen before its next assignment. The caller
     * owns the returned steps (they go to the shed lot, staying in
     * the conservation ledger) and must decrement its in-flight
     * count by exactly the returned size.
     */
    std::vector<TranscodeStep> preemptBatch();

    /** True if the (restarted) worker must screen before serving. */
    bool needsScreen() const { return needs_screen_; }

    /** Screening passed; clear the flag. */
    void clearScreen() { needs_screen_ = false; }

    /** Quarantine: the worker refused its VCU after a failed screen;
     *  it takes no work until the host is repaired. */
    void setRefused(bool value)
    {
        refused_ = value;
        notifyAvailability();
    }
    bool refused() const { return refused_; }

    /** Host came back from repair: fresh worker state. */
    void repairReset();

    /**
     * Earliest finish time over the running steps, +infinity when
     * idle. The event engine keys each worker's (single) pending
     * completion event to this.
     */
    double nextFinishTime() const
    {
        double earliest = std::numeric_limits<double>::infinity();
        for (const auto &r : running_)
            earliest = std::min(earliest, r.finish_time);
        return earliest;
    }

    /**
     * Register an availability observer (pass nullptr to detach).
     * Fired after any mutation of available_/refused_ state; @p tag
     * is echoed back (the index's dense position for this worker).
     */
    void setAvailabilityListener(WorkerAvailabilityListener *listener,
                                 int tag)
    {
        listener_ = listener;
        listener_tag_ = tag;
    }

    size_t runningSteps() const { return running_.size(); }
    bool idle() const { return running_.empty(); }

    /** Busiest-dimension utilization in [0, 1]. */
    double utilization() const;

    /** Utilization of one interned dimension (resourceDimId) in
     *  [0, 1]. */
    double dimensionUtilization(uint16_t dim) const;

  private:
    struct Running
    {
        TranscodeStep step;
        ResourceVector need;
        double start_time;
        double finish_time;
    };

    void notifyAvailability()
    {
        if (listener_ != nullptr)
            listener_->onWorkerAvailabilityChanged(*this, listener_tag_);
    }

    int id_;
    WorkerType type_;
    ResourceVector capacity_;
    ResourceVector available_;
    std::vector<Running> running_;
    size_t batch_running_ = 0; //!< Batch-priority entries in running_.
    VcuHealth *vcu_ = nullptr;
    bool needs_screen_ = false;
    bool refused_ = false;
    wsva::MetricsRegistry *metrics_ = nullptr;
    wsva::TraceLog *trace_ = nullptr;
    WorkerAvailabilityListener *listener_ = nullptr;
    int listener_tag_ = -1;
};

/** Capacity vector of a standard VCU worker (one VCU). */
ResourceVector vcuWorkerCapacity(uint64_t dram_bytes = 8ull << 30,
                                 double host_cpu_millicores = 5000,
                                 double sw_decode_millicores = 2000);

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_WORKER_H
