/**
 * @file
 * Hierarchical span tracing: one causal timeline from an upload
 * through scheduling, chunk x rung encodes on the shared thread pool,
 * optimizer probes, cache lookups, and the hlsim stage model.
 *
 * The PR 2 metrics layer counts *what* happened (counters, gauges,
 * the TraceLog event ring); this module records *where time went*.
 * A Span is an RAII interval with parent/child linkage carried in a
 * thread-local context that propagates across ThreadPool::parallelFor
 * — a body run from inside a span has that span as its parent, on
 * the caller and on every pool helper alike.
 *
 * Two clock domains coexist on one timeline:
 *  - Wall spans (RAII `Span`) timestamp real work in microseconds of
 *    steady-clock time since the tracer was created.
 *  - Sim spans are recorded retrospectively with explicit simulation
 *    timestamps (ClusterSim seconds, hlsim cycles), so a seeded run
 *    produces a byte-identical trace every time.
 *
 * Tracer::exportChromeTrace() writes Chrome trace-event JSON that
 * loads in Perfetto / chrome://tracing, optionally merging a
 * TraceLog's typed events as instant + counter events on the same
 * timeline.
 *
 * Cost discipline: a disabled tracer reduces every record call to one
 * relaxed atomic load and a predictable branch; constructing a Span
 * against a null or disabled tracer does no clock read, no id
 * allocation, and no locking (bench_observability enforces the
 * enabled-overhead budget).
 */

#ifndef WSVA_COMMON_TRACE_H
#define WSVA_COMMON_TRACE_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/ring_queue.h"

namespace wsva {

class TraceLog;

/** Which clock a span's timestamps come from. */
enum class SpanClock : int {
    Wall = 0, //!< Microseconds of steady-clock time (real work).
    Sim = 1,  //!< Deterministic simulation time (reproducible traces).
};

/**
 * Chrome "process" lanes used to keep the clock domains and layers
 * visually separate in Perfetto. Wall spans default to kProcessWall,
 * sim spans to kProcessSim; recorders may pick any other lane.
 */
inline constexpr int kProcessWall = 1;     //!< Wall-clock spans.
inline constexpr int kProcessSim = 2;      //!< Cluster sim (seconds).
inline constexpr int kProcessSimHosts = 3; //!< Host-level sim spans.
inline constexpr int kProcessHlsim = 4;    //!< hlsim stages (cycles).

/**
 * One recorded span. `name`/`category`/arg keys are `const char *`
 * and must outlive the tracer (string literals in practice; use
 * Tracer::intern() for dynamic names).
 */
struct SpanRecord
{
    const char *name = "";
    const char *category = "";
    uint64_t id = 0;     //!< Unique per tracer; 0 = assign at record.
    uint64_t parent = 0; //!< Parent span id; 0 = root.
    SpanClock clock = SpanClock::Wall;
    bool instant = false; //!< Point event; only begin_us is used.
    double begin_us = 0.0;
    double end_us = 0.0;
    int track = 0;   //!< Chrome tid (thread index / worker / stage).
    int process = 0; //!< Chrome pid; 0 = derive from clock domain.
    const char *arg1_key = nullptr;
    uint64_t arg1 = 0;
    const char *arg2_key = nullptr;
    uint64_t arg2 = 0;
};

/**
 * Bounded span sink. Keeps the most recent `capacity` spans (older
 * ones are dropped and counted). Thread-safe: wall spans arrive
 * concurrently from pool workers; the record path is one spinlock
 * acquisition and a RingQueue push, no allocation in steady state.
 */
class Tracer
{
  public:
    explicit Tracer(size_t capacity = 1 << 16);

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    /** The one branch every disabled-path record call pays. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Next span id (ids start at 1; 0 means "no parent"). */
    uint64_t nextId()
    {
        return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /**
     * Record a finished span. rec.id == 0 gets a fresh id. No-op when
     * disabled.
     */
    void record(SpanRecord rec);

    /**
     * Convenience: record a completed sim-domain span with explicit
     * timestamps (microsecond units on the Chrome timeline; pass
     * seconds * 1e6 for ClusterSim, raw cycles for hlsim).
     * @return the span's id (0 when disabled).
     */
    uint64_t recordSimSpan(const char *name, const char *category,
                           double begin_us, double end_us, int track,
                           uint64_t parent = 0, int process = kProcessSim,
                           const char *arg1_key = nullptr,
                           uint64_t arg1 = 0,
                           const char *arg2_key = nullptr,
                           uint64_t arg2 = 0);

    /**
     * Record a wall-clock instant event on the current thread's
     * track, parented to the enclosing span (if any).
     */
    void instant(const char *name, const char *category,
                 const char *arg1_key = nullptr, uint64_t arg1 = 0,
                 const char *arg2_key = nullptr, uint64_t arg2 = 0);

    /** Microseconds of steady-clock time since tracer creation. */
    double wallMicros() const;

    /**
     * Copy @p name into tracer-owned storage and return a pointer
     * stable for the tracer's lifetime (for non-literal span names,
     * e.g. hlsim stage names). Repeated interns of equal strings
     * return the same pointer.
     */
    const char *intern(const std::string &name);

    /** Spans currently retained. */
    size_t size() const;
    /** Total spans ever recorded (including dropped). */
    uint64_t recorded() const;
    /** Spans evicted from the ring. */
    uint64_t dropped() const;
    /** Retained spans, oldest first. */
    std::vector<SpanRecord> snapshot() const;
    /** Drop retained spans and counters (enabled flag unchanged). */
    void clear();

    /**
     * Chrome trace-event JSON (object form) loadable in Perfetto /
     * chrome://tracing. Spans become "X" complete events (instants
     * become "i"), with span/parent ids and args under "args". When
     * @p events is supplied, its typed events are merged as instant
     * events plus a cumulative per-type counter track, so the PR 2
     * cluster events and the spans render on one timeline. Output is
     * deterministic given identical recorded state.
     */
    std::string exportChromeTrace(const TraceLog *events = nullptr) const;

  private:
    std::atomic<bool> enabled_{true};
    std::atomic<uint64_t> next_id_{0};
    mutable SpinLock mutex_;
    size_t capacity_;
    RingQueue<SpanRecord> spans_; //!< Same discipline as TraceLog.
    uint64_t recorded_ = 0;
    uint64_t dropped_ = 0;
    std::deque<std::string> interned_;
    std::map<std::string, const char *> intern_index_;
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * The thread-local span context: which tracer and span the current
 * thread is "inside". Propagated across ThreadPool::parallelFor so
 * bodies run on pool helpers inherit the caller's span as parent.
 */
struct SpanContext
{
    const Tracer *tracer = nullptr;
    uint64_t span_id = 0;
};

/** The calling thread's current span context. */
SpanContext currentSpanContext();

/**
 * Install a span context for the current scope and restore the
 * previous one on destruction. A ThreadPool helper runs each fan-out
 * inside one of these; it is also the hook for custom executors.
 */
class ScopedSpanContext
{
  public:
    explicit ScopedSpanContext(const SpanContext &ctx);
    ~ScopedSpanContext();

    ScopedSpanContext(const ScopedSpanContext &) = delete;
    ScopedSpanContext &operator=(const ScopedSpanContext &) = delete;

  private:
    SpanContext prev_;
};

/**
 * RAII wall-clock span. Construction against a null or disabled
 * tracer is a no-op (one predictable branch); otherwise it snapshots
 * the clock, links to the enclosing span, and becomes the current
 * context until destruction.
 */
class Span
{
  public:
    /** @p name and @p category must outlive the tracer (literals). */
    explicit Span(Tracer *tracer, const char *name,
                  const char *category = "");
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a numeric argument (first two calls stick). */
    void arg(const char *key, uint64_t value);

    /** This span's id (0 when tracing is disabled). */
    uint64_t id() const { return rec_.id; }

  private:
    Tracer *tracer_ = nullptr; //!< Null = disabled; destructor no-op.
    SpanRecord rec_;
    SpanContext prev_;
};

} // namespace wsva

#endif // WSVA_COMMON_TRACE_H
