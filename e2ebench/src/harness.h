/**
 * @file
 * Shared machinery of the end-to-end benchmark: the closed op loop,
 * percentiles with a sample floor, the run result every workload
 * fills in, the traced arm's instruments (benchmark spans + the
 * profiler's timer table), runWorkload, which runs a workload's
 * untraced or traced pass, and the machine stamp.
 *
 * Every workload is one closed loop with a single caller: the next op
 * starts only when the previous one returned. Ops are timed from
 * outside, around one call into a public entry point; the checks that
 * decide whether an op failed run after its timer stops.
 */

#ifndef E2EBENCH_HARNESS_H
#define E2EBENCH_HARNESS_H

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/profiler.h"
#include "common/trace.h"

namespace e2e {

/** Settings of one run, from the command line. */
struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0; //!< Length of the measured window.
    bool trace = false;    //!< Traced run: per-layer metrics.
    std::string trace_out; //!< Chrome trace file written at exit.
};

/** One reported metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end metrics (untraced run) or per-layer metrics
     *  (traced run), by name. */
    std::map<std::string, Metric> metrics;
    /** Outputs that repeat exactly for a seed: model metrics, exact
     *  counts over the fingerprint window, and an output digest. */
    std::map<std::string, double> fingerprint;
    uint64_t digest = 0;
    /** Why the run is not correct (empty when it is). */
    std::vector<std::string> errors;

    void fail(const std::string &why);
    void set(const std::string &name, double value, const char *unit);
};

/** Median (mean of the two middle values for even counts); 0 when
 *  empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank @p q quantile, withheld (nullopt) unless at least
 * @p min_beyond samples lie strictly above its rank: a tail percentile
 * read off fewer samples is noise, not a measurement.
 */
std::optional<double> tailQuantile(std::vector<double> values, double q,
                                   size_t min_beyond = 10);

/** Monotonic wall-clock seconds. */
double nowSeconds();

/** Peak resident set of this process (VmHWM), in MB. */
double peakRssMb();

/** FNV-1a 64-bit over @p size bytes, chained from @p h. */
uint64_t fnv1a(const void *data, size_t size,
               uint64_t h = 14695981039346656037ull);

/** Mix an integer into a running FNV-1a digest. */
uint64_t fnvMix(uint64_t h, uint64_t value);

/** Derive an independent 64-bit stream seed from the run seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/** One op as the workload measured it. */
struct OpSample
{
    double ms = 0.0;    //!< Wall time of the timed call.
    bool ok = true;     //!< Passed its correctness checks.
    uint64_t steps = 0; //!< Transcode steps the op completed.
};

/** A closed loop's per-op record. */
struct LoopResult
{
    std::vector<double> ms;
    uint64_t steps = 0;
    uint64_t failed = 0;
    double op_seconds = 0.0; //!< Sum of op wall times.

    /** Add the ops of @p other after these. */
    void append(const LoopResult &other);
};

/**
 * Closed loop: call @p op(i) for i = 0, 1, ... for about @p seconds
 * of wall time and at least @p min_ops ops, or until @p max_ops ran
 * (0 = no cap). The loop ends only after a multiple of @p granule ops,
 * at the multiple nearest to @p seconds: a workload that cycles
 * through granule different inputs then always measures whole cycles,
 * so its op mix does not depend on where the clock ran out.
 */
LoopResult runLoop(double seconds, size_t min_ops, size_t max_ops,
                   const std::function<OpSample(size_t)> &op,
                   size_t granule = 1);

/** Ops an untraced run needs so op_p90_ms has ten samples beyond it. */
inline constexpr size_t kMinTimedOps = 100;

/** An untraced run: every op it timed and every set-up it timed. */
struct RoundsResult
{
    LoopResult loop;
    std::vector<double> setup_seconds;
};

/**
 * The untraced run: @p rounds rounds, each a fresh @p setup(round)
 * followed by a closed loop of @p op over an equal share of
 * @p seconds, with at least @p min_ops_per_round ops, ending after a
 * multiple of @p granule ops. Op indices restart at 0 in every round.
 *
 * The machine's speed drifts over seconds, so set-ups spread over the
 * run sample set-up time at several points of it, and their median
 * does not hang on one stretch. Every round measures the first ops
 * after a fresh set-up, so the op mix does not depend on how many ops
 * a run gets through.
 */
RoundsResult runRounds(int rounds, double seconds, size_t min_ops_per_round,
                       const std::function<void(int)> &setup,
                       const std::function<OpSample(size_t)> &op,
                       size_t granule = 1);

/**
 * Fill the end-to-end metrics shared by every workload: setup_s
 * (median of the set-up times), op_p50_ms, op_p90_ms (withheld below
 * the sample floor, which makes the run incorrect), steps_per_s over
 * the summed op time, and peak_rss_mb.
 */
void addEndToEnd(RunResult &result, const RoundsResult &run);

/**
 * Record the deterministic outputs of one fingerprint window. The
 * first window of a run becomes the run's fingerprint; a later round
 * that repeats the window from a fresh set-up must reproduce its
 * digest exactly, or the run is incorrect.
 */
void recordWindow(RunResult &result, bool &have_window,
                  std::map<std::string, double> fingerprint, uint64_t digest);

/** Every per-layer metric name with its unit, in report order. The
 *  traced run of every workload reports all of them; a layer the
 *  workload does not exercise reads 0. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** Seed @p result with every per-layer metric at 0. */
void addPerLayerTemplate(RunResult &result);

/** Copy fingerprint entries that are also per-layer metrics into the
 *  metric table (the traced run reports them both ways). */
void copyFingerprintToMetrics(RunResult &result);

/**
 * The traced arm's instruments: the benchmark's own wall spans and the
 * profiler's timer table (timers only; no sampler thread). Both are
 * off until start().
 */
class TraceArm
{
  public:
    TraceArm();
    ~TraceArm();

    TraceArm(const TraceArm &) = delete;
    TraceArm &operator=(const TraceArm &) = delete;

    /** Reset and switch on the tracer and the profiler timers. */
    void start();
    /** Switch both off (recorded data is kept). */
    void stop();
    bool active() const { return active_; }

    /** Null while inactive, so spans cost one branch. */
    wsva::Tracer *tracer() { return active_ ? &tracer_ : nullptr; }

    /** The profiler's aggregate view right now. */
    wsva::prof::ProfileSnapshot profile() const;

    /** Durations (ms) of every retained span named @p name. */
    std::vector<double> spanDurationsMs(const char *name) const;
    /** Summed duration (ms) of spans named @p name. */
    double spanTotalMs(const char *name) const;

    /** Write the retained spans as Chrome trace JSON; false on I/O
     *  error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    wsva::Tracer tracer_;
    bool active_ = false;
};

/** Inclusive / exclusive ms and call count of profiler phase
 *  @p name (zeros when the phase never ran). */
struct PhaseTotals
{
    double incl_ms = 0.0;
    double excl_ms = 0.0;
    uint64_t calls = 0;
};
PhaseTotals phase(const wsva::prof::ProfileSnapshot &snap,
                  const std::string &name);
/** Sum of calls over every phase whose name starts with @p prefix. */
uint64_t phaseCallsWithPrefix(const wsva::prof::ProfileSnapshot &snap,
                              const std::string &prefix);

/** RAII span + profiler phase around one call into a layer, so the
 *  call's time is both a benchmark span and a runtime child in the
 *  profiler table (parents' exclusive time then excludes it). */
class LayerCall
{
  public:
    LayerCall(wsva::Tracer *tracer, const char *name, int prof_phase);

  private:
    wsva::Span span_;
    wsva::prof::ProfScope prof_;
};

/** What the traced arm leaves for a workload's per-layer reads (the
 *  recorded spans stay in the TraceArm). */
struct TracedPass
{
    wsva::prof::ProfileSnapshot profile;        //!< At the arm's end.
    wsva::prof::ProfileSnapshot window_profile; //!< After the window.
    size_t ops = 0;          //!< Ops the traced arm ran.
    double op_seconds = 0.0; //!< Their summed wall time.
};

/** One workload as runWorkload runs it. */
struct Workload
{
    /** Fresh set-up for round @p round (a traced run sets up round 0
     *  once). */
    std::function<void(int)> setup;
    /** One timed op. Indices restart at 0 after every set-up and run on
     *  across both arms of a traced run. */
    std::function<OpSample(size_t)> op;
    int rounds = 1;        //!< Rounds of an untraced run.
    size_t window_ops = 1; //!< Fingerprint window: first ops after set-up.
    size_t granule = 1;    //!< Loops end after a multiple of this many ops.
    double traced_share = 1.0 / 3; //!< Of --seconds, for the traced arm.
    /** Per-layer reads of a traced run. It may run ops of its own and
     *  add them to attempted and failed. */
    std::function<void(RunResult &, const TracedPass &)> per_layer;
};

/**
 * Run @p workload as @p args asks and fill @p result.
 *
 * Untraced: runRounds with at least kMinTimedOps ops, then the
 * end-to-end metrics. Traced: one set-up, then the traced arm — the
 * fingerprint window, then ops up to traced_share of --seconds — with
 * @p arm on, then as many ops untraced. The load is stationary, so the
 * time ratio of the two arms is bench.trace_overhead_frac. Then the
 * workload's per-layer reads, and the spans are written out.
 */
void runWorkload(const RunArgs &args, TraceArm &arm, const Workload &workload,
                 RunResult &result);

/**
 * Event-core reads both simulator workloads share: workload.gen_ms
 * from the "arrivals" spans, cluster.run_ms (@p run_ms, cluster run
 * time net of arrival callbacks) and its time per event, dispatch,
 * index and worker-done time, and the window's index probes.
 */
void addEventCoreLayer(RunResult &result, const TraceArm &arm,
                       const TracedPass &pass, double run_ms);

/** The `machine` block: cores, CPU model, ISA, build and compiler. */
std::string machineJson(const std::string &git_commit,
                        const std::string &src_digest);

/** The final result line: exactly correct/attempted/failed/metrics. */
std::string resultJson(const RunResult &result);

/** The fingerprint line (deterministic outputs for the seed). */
std::string fingerprintJson(const RunArgs &args, const RunResult &result);

} // namespace e2e

#endif // E2EBENCH_HARNESS_H
