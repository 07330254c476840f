/**
 * @file
 * Observability subsystem: a registry of named metrics (counters,
 * gauges, histograms, sim-time series) plus a structured trace log of
 * typed simulation events.
 *
 * The cluster simulator's failure accounting (utilization, fault and
 * repair counts, corruption blast radius — the quantities behind the
 * paper's Section 4.4 deployment story) used to be computed ad hoc
 * inline, which is how several counters drifted from reality. Both
 * classes here are cheap enough to stay enabled in normal runs, are
 * thread-safe (the transcode pipeline records encode timings from
 * pool workers), and export JSON so benches and tests can assert on
 * the numbers rather than eyeball them. A disabled registry/log turns
 * every record call into an atomic load and an early return, which is
 * what the metrics-overhead bench measures against.
 */

#ifndef WSVA_COMMON_METRICS_H
#define WSVA_COMMON_METRICS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/ring_queue.h"
#include "common/stats.h"

namespace wsva {

/** One (sim-time, value) point of a sampled series. */
using TimeSample = std::pair<double, double>;

/**
 * Rewrite @p name into a legal Prometheus metric name
 * ([a-zA-Z_:][a-zA-Z0-9_:]*): every illegal character (the registry's
 * `.` separators, `-`, `/`, ...) becomes `_`, a leading digit gets a
 * `_` prefix, and an empty name becomes `_`. Distinct inputs can
 * collide after rewriting; MetricsRegistry::toPrometheusText()
 * resolves those with deterministic `_2`, `_3`, ... suffixes.
 */
std::string sanitizePrometheusName(const std::string &name);

/**
 * Minimal spinlock for hot, uncontended, short critical sections
 * (the trace-log and span record paths, SnapshotBoard's pointer
 * swap). Satisfies BasicLockable.
 */
class SpinLock
{
  public:
    void lock()
    {
        while (flag_.test_and_set(std::memory_order_acquire)) {
        }
    }
    void unlock() { flag_.clear(std::memory_order_release); }

  private:
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/**
 * Pre-resolved handle to one registry counter for hot paths: the name
 * lookup (and its string construction) happens once, at
 * MetricsRegistry::counterHandle(); each inc() after that is an
 * enabled check plus a relaxed atomic add — no lock, no allocation.
 * Handles stay valid for the registry's lifetime (reset() zeroes the
 * value behind a handle rather than discarding it). A
 * default-constructed handle is a no-op.
 */
class CounterHandle
{
  public:
    CounterHandle() = default;

    void inc(uint64_t delta = 1) const
    {
        if (cell_ != nullptr &&
            enabled_->load(std::memory_order_relaxed))
            cell_->fetch_add(delta, std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    CounterHandle(std::atomic<uint64_t> *cell,
                  const std::atomic<bool> *enabled)
        : cell_(cell), enabled_(enabled)
    {
    }

    std::atomic<uint64_t> *cell_ = nullptr;
    const std::atomic<bool> *enabled_ = nullptr;
};

/**
 * Pre-resolved handle to one registry histogram, the histogram twin of
 * CounterHandle: the name lookup happens once, at
 * MetricsRegistry::histogramHandle(); each observe() after that is an
 * enabled check plus one Histogram::add under the registry lock, with
 * no string and no map walk. Handles stay valid for the registry's
 * lifetime (reset() empties the histogram behind a handle rather than
 * discarding it). A default-constructed handle is a no-op.
 */
class HistogramHandle
{
  public:
    HistogramHandle() = default;

    void observe(double value) const
    {
        if (hist_ == nullptr ||
            !enabled_->load(std::memory_order_relaxed))
            return;
        std::lock_guard<std::mutex> lock(*mutex_);
        hist_->add(value);
    }

  private:
    friend class MetricsRegistry;
    HistogramHandle(Histogram *hist, std::mutex *mutex,
                    const std::atomic<bool> *enabled)
        : hist_(hist), mutex_(mutex), enabled_(enabled)
    {
    }

    Histogram *hist_ = nullptr;
    std::mutex *mutex_ = nullptr;
    const std::atomic<bool> *enabled_ = nullptr;
};

/**
 * Named metrics: monotonic counters, last-value gauges, histograms,
 * and time-series samplers keyed by simulation time. All operations
 * are guarded by one mutex; record paths on a disabled registry skip
 * the lock entirely.
 */
class MetricsRegistry
{
  public:
    /** Points kept per series before decimation halves them. */
    static constexpr size_t kMaxSeriesPoints = 1024;

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Increment counter @p name by @p delta. */
    void inc(const std::string &name, uint64_t delta = 1);

    /**
     * Lock-free handle to counter @p name (created if absent). The
     * handle works regardless of the enabled state at resolution
     * time; each inc() re-checks the live flag.
     */
    CounterHandle counterHandle(const std::string &name);

    /** Set gauge @p name to @p value. */
    void setGauge(const std::string &name, double value);

    /**
     * Record @p value into histogram @p name, creating it with the
     * given range on first use (later calls ignore the range).
     */
    void observe(const std::string &name, double value, double lo = 0.0,
                 double hi = 1e9, size_t bins = 64);

    /**
     * Handle to histogram @p name, created with the given range if
     * absent (an existing histogram keeps its range). Like
     * counterHandle(), it works whatever the enabled state at
     * resolution time; each observe() re-checks the live flag.
     */
    HistogramHandle histogramHandle(const std::string &name,
                                    double lo = 0.0, double hi = 1e9,
                                    size_t bins = 64);

    /**
     * Append a (sim-time, value) point to series @p name. Series are
     * bounded: past kMaxSeriesPoints every other point is dropped and
     * the sampling stride doubles, so long runs keep a coarse full
     * history instead of an unbounded tail.
     */
    void sample(const std::string &name, double t, double value);

    uint64_t counter(const std::string &name) const;
    double gauge(const std::string &name) const;

    /** Sample count of histogram @p name (0 when absent). */
    uint64_t histogramCount(const std::string &name) const;

    /** Quantile of histogram @p name (0 when absent). */
    double histogramQuantile(const std::string &name, double q) const;

    /** Copy of the points currently retained for series @p name. */
    std::vector<TimeSample> seriesSnapshot(const std::string &name) const;

    /** Drop all metrics (the enabled flag is left as-is). Counters
     *  and histograms, which handles point at, are zeroed and emptied
     *  in place, not removed. */
    void reset();

    /**
     * JSON object with "schema_version", "counters", "gauges",
     * "histograms" (bins plus p50/p90/p99; one with no samples, such
     * as a resolved handle's before its first observe(), is left
     * out), and "series" (stride + retained points). The schema
     * version is bumped on structural changes so bench-JSON consumers
     * can detect drift.
     */
    std::string toJson() const;

    /**
     * Prometheus text exposition (format 0.0.4) of the registry:
     * counters, gauges, and histograms (those with samples, as in
     * toJson()) with HELP/TYPE lines. Names are sanitized (see
     * sanitizePrometheusName) and collisions are resolved
     * deterministically with numeric suffixes, so two registry names
     * never share an exposition family. Histogram
     * buckets are cumulative over the bin upper edges (underflow
     * lands in the first bucket, "+Inf" equals the total count) and
     * the `_sum` is estimated from bin midpoints — the same
     * approximation Histogram::quantile uses. Time series are NOT
     * exported: Prometheus derives history by scraping the gauges.
     * The registry lock is held only while copying metric state;
     * formatting happens outside it, so a scrape cannot stall the
     * record paths.
     */
    std::string toPrometheusText() const;

  private:
    struct Series
    {
        uint64_t stride = 1;    //!< Keep one of every stride samples.
        uint64_t countdown = 0; //!< Raw samples until the next keep.
        std::vector<TimeSample> points;
    };

    /** Histogram @p name, created with the given range if absent.
     *  The caller holds mutex_. */
    Histogram &histogramLocked(const std::string &name, double lo,
                               double hi, size_t bins);

    std::atomic<bool> enabled_{true};
    mutable std::mutex mutex_;
    // node-based maps: counter cells and histograms are address-stable
    // for handles.
    std::map<std::string, std::atomic<uint64_t>> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, Series> series_;
};

/** Event types recorded by the cluster simulation. */
enum class TraceEventType : int {
    FaultInjected = 0,   //!< A VCU hard fault disabled the device.
    SilentFaultInjected, //!< A VCU began corrupting output (fast).
    HostEnterRepair,     //!< Host crossed the fault threshold.
    HostRepaired,        //!< Repair completed; host back in service.
    StepScheduled,       //!< Step assigned to a worker.
    StepCompleted,       //!< Step finished with good output.
    StepFailed,          //!< Step failed on faulted hardware.
    StepRetried,         //!< Step re-queued after failure/abort.
    StepCorrupt,         //!< Step produced corrupt output.
    WorkerQuarantined,   //!< Worker refused its VCU after screening.
    SloAlert,            //!< SLO burn rate crossed the alert line.
    SloAlertCleared,     //!< SLO burn rate recovered.
    StepShed,            //!< Batch step parked/preempted for live work.
};

/** Number of distinct TraceEventType values. */
inline constexpr size_t kTraceEventTypeCount = 13;

/** Stable snake_case name of an event type (for JSON). */
const char *traceEventTypeName(TraceEventType type);

/** One structured trace record. Unused id fields stay at -1/0. */
struct TraceEvent
{
    TraceEventType type = TraceEventType::StepScheduled;
    double time = 0.0;     //!< Simulation time, seconds.
    int host = -1;
    int worker = -1;       //!< Global worker/VCU id.
    uint64_t step_id = 0;
    uint64_t video_id = 0;
};

/**
 * Bounded structured event log. Keeps the most recent @p capacity
 * events (older ones are dropped and counted), but per-type totals
 * cover the whole run.
 */
class TraceLog
{
  public:
    explicit TraceLog(size_t capacity = 1 << 16);

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void record(const TraceEvent &event);
    void record(TraceEventType type, double time, int host = -1,
                int worker = -1, uint64_t step_id = 0,
                uint64_t video_id = 0);

    /** Events currently retained. */
    size_t size() const;

    /** Total events ever recorded (including dropped). */
    uint64_t recorded() const;

    /** Events evicted from the buffer. */
    uint64_t dropped() const;

    /** Lifetime count of one event type (survives eviction). */
    uint64_t countOf(TraceEventType type) const;

    /** The last @p max_events retained events, oldest first. */
    std::vector<TraceEvent> snapshot(size_t max_events = SIZE_MAX) const;

    void clear();

    /**
     * JSON object with lifetime per-type "counts" and the last
     * @p max_events retained "events". The ring lock is held only
     * while copying the events out; formatting runs unlocked so a
     * concurrent scrape cannot stall the record path.
     */
    std::string toJson(size_t max_events = 256) const;

  private:
    std::atomic<bool> enabled_{true};
    mutable SpinLock mutex_; //!< record() runs once per step event.
    size_t capacity_;
    // At capacity the oldest event is popped (and counted dropped);
    // the warmed ring never allocates.
    RingQueue<TraceEvent> events_;
    uint64_t recorded_ = 0;
    uint64_t dropped_ = 0;
    std::array<uint64_t, kTraceEventTypeCount> counts_{};
};

} // namespace wsva

#endif // WSVA_COMMON_METRICS_H
