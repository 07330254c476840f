#ifndef WSVA_COMMON_PROFILER_H_
#define WSVA_COMMON_PROFILER_H_

/**
 * wsva::prof -- continuous, low-overhead phase/kernel profiling.
 *
 * The paper's fleet is operated by always-on measurement; this module
 * gives the simulator the same property.  Phases are interned,
 * slash-separated hierarchical paths ("event/worker_done",
 * "codec/motion_search") and every instrumented region is an RAII
 * ProfScope.  The hot path follows the CounterHandle discipline from
 * metrics.h:
 *
 *   dark mode    -- one relaxed atomic load + branch per scope; no
 *                   clock read, no TLS registration, no allocation.
 *   enabled mode -- two steady_clock reads + a handful of relaxed
 *                   fetch_adds on thread-local cache lines.  No locks,
 *                   ever, on the recording path.
 *
 * Each recording thread owns a ThreadBlock of per-phase accumulators
 * (inclusive ns, runtime-child ns, call count) plus a published phase
 * stack (bounded depth) that a wall-clock sampler thread may read with
 * relaxed atomics.  Exclusive time is derived as inclusive minus
 * runtime-child time, so a phase's self-time is attributed correctly
 * no matter which static paths nest under it at runtime.
 *
 * Aggregation (snapshot/publish/toJson/collapsed export) walks all
 * thread blocks under the registry mutex; a double-buffered snapshot
 * board (shared_ptr swap under a SpinLock, same pattern as
 * FleetHealthBoard) lets /profilez scrapes read a consistent view
 * without ever blocking sim ticks.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace wsva {

class MetricsRegistry;

namespace prof {

/** Interned phase table capacity; intern() returns -1 once full. */
inline constexpr int kMaxPhases = 192;
/** Published phase-stack depth per thread; deeper nests still time
 *  correctly but are invisible to the sampler. */
inline constexpr int kMaxStackDepth = 16;

/** One row of an aggregated profile. */
struct PhaseStat {
    int id = -1;
    std::string name;
    uint64_t calls = 0;
    uint64_t incl_ns = 0;   ///< inclusive (scope-entry to scope-exit)
    uint64_t excl_ns = 0;   ///< inclusive minus runtime-child time
    uint64_t samples = 0;   ///< wall-clock sampler leaf hits
};

/** Per-thread rollup for the /profilez breakdown table. */
struct ThreadStat {
    std::string name;
    uint64_t calls = 0;
    uint64_t busy_ns = 0;      ///< sum of exclusive ns over all phases
    std::string top_phase;     ///< phase with the most exclusive time
    uint64_t top_excl_ns = 0;
};

/** Immutable aggregated view; safe to share across threads. */
struct ProfileSnapshot {
    bool enabled = false;
    uint64_t total_samples = 0;
    std::vector<PhaseStat> phases;     ///< sorted by exclusive ns, desc
    std::vector<ThreadStat> threads;
};

/**
 * Process-wide profile registry.  All members are thread-safe; the
 * recording fast path (ProfScope, addTime) touches only the global
 * enabled flag and thread-local atomics.
 */
class ProfileRegistry {
  public:
    static ProfileRegistry &instance();

    /** Master switch.  Dark (false) is the default and costs one
     *  relaxed load per instrumented scope. */
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /**
     * Intern a slash-separated phase path ("cluster/dispatch").
     * Returns a dense id, or -1 if the table is full (scopes with a
     * -1 id are silent no-ops).  Idempotent; intended to be called
     * once per call site via a function-local static.
     */
    int intern(const char *path);

    /** Name for an interned id ("" when out of range). */
    std::string phaseName(int id) const;

    /** Number of interned phases. */
    int phaseCount() const { return phase_count_.load(std::memory_order_acquire); }

    /** Label the calling thread in per-thread breakdowns. */
    void setThreadName(const std::string &name);

    /** Aggregate all thread blocks + sampler hits right now. */
    ProfileSnapshot snapshot() const;

    /** Build a snapshot and swap it onto the double-buffered board. */
    void publish();

    /** Last published snapshot (never null; empty before first
     *  publish).  Lock-free apart from a brief SpinLock. */
    std::shared_ptr<const ProfileSnapshot> board() const;

    /**
     * Start the wall-clock sampler thread.  Every period_us it reads
     * each thread's published phase stack (relaxed loads only --
     * tearing is tolerated by design) and accumulates leaf-sample and
     * collapsed-stack counts.  It also republishes the board a few
     * times per second.  No-op if already running.
     */
    void startSampler(uint64_t period_us = 5000);
    void stopSampler();
    bool samplerRunning() const { return sampler_run_.load(std::memory_order_acquire); }
    uint64_t samplerTicks() const { return sampler_ticks_.load(std::memory_order_relaxed); }

    /**
     * Collapsed-stack text for FlameGraph / speedscope
     * ("a;b;c <value>" per line).  When the sampler has collected
     * stacks the value is sample counts (true runtime nesting);
     * otherwise it falls back to per-phase exclusive microseconds
     * keyed by the static path.  A leading '#' comment names the
     * source.
     */
    std::string toCollapsed() const;

    /** Human-readable /profilez page: top-k table + per-thread
     *  breakdown, rendered from the published board when available. */
    std::string toText(int top_k = 20) const;

    /** JSON object for ClusterSim::exportJson's "profile" block. */
    std::string toJson(int top_k = 20) const;

    /** Export "profile.<phase>.{excl_ms,calls}" gauges plus rollup
     *  totals into a MetricsRegistry (Prometheus-visible). */
    void exportGauges(MetricsRegistry &registry, int top_k = 20) const;

    /** Zero every accumulator, sampler hit, and the board (tests /
     *  bench arms).  Phase interning and thread registration are
     *  preserved. */
    void reset();

    // -- recording internals (public for ProfScope/addTime) --
    struct ThreadBlock {
        std::atomic<uint64_t> incl_ns[kMaxPhases];
        std::atomic<uint64_t> child_ns[kMaxPhases];
        std::atomic<uint64_t> calls[kMaxPhases];
        std::atomic<int> stack[kMaxStackDepth];
        std::atomic<int> depth{0};
        /** Per-phase ProfScopeSampled cadence counters.  Plain ints:
         *  only ever touched by the owning thread (the sampler never
         *  reads them). */
        uint32_t skip[kMaxPhases];
        char name[32];
        ThreadBlock();
    };

    /** Thread-local block for the calling thread (registers on first
     *  use; block storage is never freed so the sampler can keep
     *  reading it). */
    static ThreadBlock &tls();

    ~ProfileRegistry();

  private:
    ProfileRegistry();
    ProfileRegistry(const ProfileRegistry &) = delete;
    ProfileRegistry &operator=(const ProfileRegistry &) = delete;

    ThreadBlock *registerThread();
    void samplerLoop(uint64_t period_us);
    ProfileSnapshot buildSnapshot() const;

    std::atomic<bool> enabled_{false};

    struct Impl;
    Impl *impl_;

    std::atomic<int> phase_count_{0};
    std::atomic<bool> sampler_run_{false};
    std::atomic<uint64_t> sampler_ticks_{0};
};

/** Monotonic nanoseconds (steady_clock). */
uint64_t nowNs();

/**
 * Intern helper for call sites:
 *   static const int kPhase = wsva::prof::phaseId("cluster/dispatch");
 */
inline int phaseId(const char *path)
{
    return ProfileRegistry::instance().intern(path);
}

inline bool enabled()
{
    return ProfileRegistry::instance().enabled();
}

/**
 * RAII phase timer.  Construction in dark mode is a single relaxed
 * load + branch.  When enabled it pushes the phase onto the thread's
 * published stack, and on destruction adds elapsed time to the
 * phase's inclusive counter and to the parent's runtime-child
 * counter (so parents report correct exclusive time).
 */
class ProfScope {
  public:
    explicit ProfScope(int phase)
    {
        if (phase < 0 || !ProfileRegistry::instance().enabled())
            return;
        enter(phase);
    }

    ~ProfScope()
    {
        if (block_ != nullptr)
            leave();
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    void enter(int phase);
    void leave();

    ProfileRegistry::ThreadBlock *block_ = nullptr;
    int phase_ = -1;
    int depth_ = 0;         ///< stack depth at entry (our slot)
    uint64_t start_ns_ = 0;
};

/**
 * Sampled RAII timer for call sites too hot to clock on every
 * invocation (per-pick scheduler probes, per-block codec kernels,
 * where a full ProfScope's two clock reads would themselves show up
 * in the profile).  Every call is counted exactly, but only every
 * `period`-th call per thread pays the clock reads; the measured
 * duration is scaled by `period` before being credited, so
 * inclusive/exclusive totals stay statistically correct while the
 * steady-state cost drops to one TLS counter bump, the phase-stack
 * push and pop, and one relaxed fetch_add.  Every call, timed or
 * not, publishes its phase to the wall-clock sampler's stack like a
 * ProfScope, so flame views see the phase for all of its wall time,
 * not just the timed calls'.
 */
class ProfScopeSampled {
  public:
    ProfScopeSampled(int phase, uint32_t period)
    {
        if (phase < 0 || !ProfileRegistry::instance().enabled())
            return;
        enter(phase, period);
    }

    ~ProfScopeSampled()
    {
        if (block_ != nullptr)
            leave();
    }

    ProfScopeSampled(const ProfScopeSampled &) = delete;
    ProfScopeSampled &operator=(const ProfScopeSampled &) = delete;

  private:
    void enter(int phase, uint32_t period);
    void leave();

    ProfileRegistry::ThreadBlock *block_ = nullptr;
    int phase_ = -1;
    int depth_ = 0;
    uint32_t scale_ = 0;    ///< time credit multiplier; 0 = untimed call
    uint64_t start_ns_ = 0;
};

/**
 * Manual attribution for ultra-hot regions where even a scope per
 * iteration is too much: accumulate elapsed ns locally, then call
 * addTime once.  Credits the phase's inclusive/call counters and the
 * current stack top's child counter, exactly like a ProfScope, but
 * does not publish the phase to the sampler.
 */
void addTime(int phase, uint64_t ns, uint64_t calls = 1);

}  // namespace prof
}  // namespace wsva

#endif  // WSVA_COMMON_PROFILER_H_
