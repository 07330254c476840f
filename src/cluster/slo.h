/**
 * @file
 * Per-upload SLO monitoring for the cluster simulator.
 *
 * The paper's deployment story (Section 4) is ultimately about a
 * latency promise: uploads must become playable quickly even while
 * VCUs fault, hosts cycle through repair, and corrupt output is
 * caught and re-run. This monitor tracks every submitted step from
 * submission to terminal completion and derives the alerting signals
 * a production service would page on:
 *
 *  - lifetime end-to-end latency distribution (p50/p99),
 *  - a sliding-window p99 over the last `window_ticks` ticks,
 *  - a burn rate: the fraction of recent ticks whose windowed p99
 *    exceeded the target (an SLO-burn alert fires with hysteresis —
 *    raised at `burn_alert_fraction`, cleared at half of it, so a
 *    rate hovering at the line does not flap),
 *  - queue age: how long the oldest unfinished step has been in the
 *    system.
 *
 * Alert transitions are recorded as SloAlert / SloAlertCleared
 * TraceLog events, the signals are sampled into MetricsRegistry
 * series each tick, and everything is summarized by exportJson()
 * (surfaced through ClusterSim::exportJson()). The monitor also
 * carries the pre-allocated end-to-end span id per upload, which is
 * how ClusterSim parents its queue_wait/execute sim spans to the
 * upload's root span.
 */

#ifndef WSVA_CLUSTER_SLO_H
#define WSVA_CLUSTER_SLO_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/ring_queue.h"
#include "common/stats.h"

namespace wsva {
class MetricsRegistry;
class TraceLog;
} // namespace wsva

namespace wsva::cluster {

/** SLO monitoring configuration. */
struct SloConfig
{
    bool enabled = true;

    /** The promise: p99 end-to-end latency stays under this. */
    double p99_target_seconds = 120.0;

    /** Sliding-window length, in simulation ticks. */
    size_t window_ticks = 60;

    /**
     * Alert when this fraction of recent ticks had a windowed p99
     * over target; the alert clears at half this fraction.
     */
    double burn_alert_fraction = 0.5;

    /**
     * Publish the windowed p99 / burn-rate / queue-age gauges and
     * series every N ticks. The alert itself is evaluated every tick
     * (the burning check is an O(1) rank-count comparison); only the
     * dashboard values are decimated, because materializing the exact
     * windowed p99 costs a selection pass over the window.
     */
    static constexpr size_t kGaugeEveryTicks = 15;

    /**
     * The live promise: at most this fraction of deadline-carrying
     * completions in the window may miss their deadline. Purely a
     * reporting threshold (the burn-rate alert stays the paging
     * signal); benches compare shed-on/shed-off arms against it.
     */
    static constexpr double kDeadlineMissBudget = 0.01;
};

/**
 * Tracks per-upload end-to-end latency and derives windowed p99,
 * burn rate, queue age, and a hysteretic burn-rate alert.
 *
 * Uploads enter via onSubmit() and leave via onComplete(); retries
 * keep their entry, so the measured latency covers every requeue and
 * repair in between. The submit/complete bookkeeping runs whenever
 * the caller invokes it (the span-id plumbing needs it even when SLO
 * evaluation is off); `enabled` only gates the per-tick evaluation.
 */
class SloMonitor
{
  public:
    /** One unfinished upload. */
    struct Upload
    {
        double submit_time = 0.0;
        uint64_t span_id = 0; //!< Pre-allocated e2e span id (0 = none).
        /** Absolute deadline (+infinity = none). */
        double deadline_time = std::numeric_limits<double>::infinity();
    };

    explicit SloMonitor(SloConfig cfg = {});

    /** Attach observability sinks (optional, not owned). */
    void attach(wsva::MetricsRegistry *metrics, wsva::TraceLog *trace);

    const SloConfig &config() const { return cfg_; }

    /**
     * A step entered the system at @p now. Callers must invoke this
     * unconditionally (even with SLO evaluation and tracing dark):
     * the enqueue timestamp is what queueAge() ages from, and a step
     * submitted while telemetry was off used to be invisible — after
     * a re-enable its age read from the wrong epoch. @p deadline_time
     * (+infinity = none) feeds the deadline-miss accounting.
     */
    void onSubmit(uint64_t step_id, double now, uint64_t span_id = 0,
                  double deadline_time =
                      std::numeric_limits<double>::infinity());

    /** The unfinished upload for @p step_id, or nullptr. */
    const Upload *find(uint64_t step_id) const;

    /**
     * A step terminally completed at @p now.
     * @return its end-to-end latency in seconds, or a negative value
     *         when the step was never tracked.
     */
    double onComplete(uint64_t step_id, double now);

    /**
     * A step left this cluster without completing (expelled for
     * cross-region reroute). Drops the tracking entry with no latency
     * or deadline accounting — the receiving region measures the
     * upload from its own onSubmit. Without this, expelled steps
     * would sit in the in-flight map forever, skewing queueAge and
     * leaking under sustained quarantine.
     */
    void onCancel(uint64_t step_id);

    /** Evaluate the windowed signals and the alert at tick time. */
    void onTick(double now);

    /** Windowed p99 over completions in the last window_ticks. */
    double windowP99() const;

    /** Fraction of recent ticks whose windowed p99 was over target. */
    double burnRate() const;

    bool alertActive() const { return alert_active_; }
    uint64_t alertsRaised() const { return alerts_raised_; }

    /** Age of the oldest unfinished upload (0 when none). */
    double queueAge(double now) const;

    size_t inflight() const { return inflight_.size(); }
    uint64_t completedCount() const { return completed_; }

    /** Completions whose latency exceeded the target (lifetime). */
    uint64_t violations() const { return violations_total_; }

    /** Deadline-carrying completions (lifetime). */
    uint64_t deadlineTracked() const { return deadline_tracked_; }

    /** Deadline-carrying completions that missed (lifetime). */
    uint64_t deadlineMissed() const { return deadline_missed_; }

    /** Lifetime deadline-miss fraction (0 when none tracked). */
    double deadlineMissRate() const;

    /** Miss fraction over deadline completions in the window. */
    double windowDeadlineMissRate() const;

    /** Lifetime end-to-end latency quantile. */
    double lifetimeQuantile(double q) const
    {
        return latency_.quantile(q);
    }

    /** Lifetime latency quantile over deadline-carrying steps only
     *  (the live traffic class; 0 when none completed). */
    double liveQuantile(double q) const
    {
        return live_latency_.quantile(q);
    }

    /** JSON object summarizing the SLO state at time @p now. */
    std::string exportJson(double now) const;

  private:
    SloConfig cfg_;
    wsva::MetricsRegistry *metrics_ = nullptr;
    wsva::TraceLog *trace_ = nullptr;

    // Hot path: one insert per submit, one find+erase per completion,
    // once per step — an open-addressing flat map keeps that churn
    // off the allocator entirely (bench_observability's 5% budget is
    // only ~4 ms of CPU; node-based map churn alone ate half of it).
    wsva::FlatMap64<Upload> inflight_;
    // (submit_time, step_id) in submission order. Submission times
    // are non-decreasing (the sim clock), so the oldest unfinished
    // upload is at the front once finished/stale entries are lazily
    // popped — queueAge() is amortized O(1) instead of a per-tick
    // scan of a map that grows without bound under overload.
    mutable wsva::RingQueue<std::pair<double, uint64_t>> submit_order_;
    wsva::Histogram latency_;
    wsva::Histogram live_latency_; //!< Deadline-carrying steps only.
    uint64_t completed_ = 0;
    uint64_t violations_total_ = 0;
    uint64_t deadline_tracked_ = 0;
    uint64_t deadline_missed_ = 0;

    uint64_t tick_ = 0;
    // (tick, latency) of recent completions, pruned to the window.
    wsva::RingQueue<std::pair<uint64_t, double>> window_latencies_;
    // (tick, missed) of recent deadline-carrying completions, pruned
    // to the window on the same edge (an entry stamped tick T leaves
    // exactly when tick_ reaches T + window_ticks).
    wsva::RingQueue<std::pair<uint64_t, bool>> window_deadlines_;
    size_t window_deadline_missed_ = 0;
    // Completions in the window whose latency exceeds the target,
    // maintained incrementally. "windowed p99 > target" is exactly
    // "at least (n - rank) of the n window latencies exceed the
    // target", so the per-tick burning check is O(1) and never
    // materializes the p99 value.
    size_t over_target_in_window_ = 0;
    // Scratch for on-demand windowP99(); reused across calls.
    mutable std::vector<double> p99_scratch_;
    // windowP99() memo: valid until the window mutates (a completion
    // lands or a tick evicts), so the gauge decimation, the fleet
    // rollup, and exports on the same tick share one materialization.
    mutable bool p99_dirty_ = true;
    mutable double p99_cached_ = 0.0;
    // One flag per recent tick: was the windowed p99 over target?
    std::deque<bool> window_burning_;
    // Count of true flags in window_burning_, kept incrementally so
    // burnRate() is O(1) on the per-tick path.
    size_t burning_ticks_ = 0;
    bool alert_active_ = false;
    uint64_t alerts_raised_ = 0;
};

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_SLO_H
