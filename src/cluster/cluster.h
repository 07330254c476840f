/**
 * @file
 * Cluster-level simulation: hosts with 20 VCUs each, a pool of VCU
 * workers fed by a work queue through a pluggable scheduler, fault
 * injection with the paper's failure-management mitigations, and the
 * dynamic-tuning knobs (software-decode offload, NUMA awareness)
 * evaluated in Section 4.
 */

#ifndef WSVA_CLUSTER_CLUSTER_H
#define WSVA_CLUSTER_CLUSTER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/consistent_hash.h"
#include "cluster/event_queue.h"
#include "cluster/failure.h"
#include "cluster/fleet_health.h"
#include "cluster/scheduler.h"
#include "cluster/slo.h"
#include "cluster/work.h"
#include "cluster/worker.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"

namespace wsva {
class DebugServer;
} // namespace wsva

namespace wsva::cluster {

/**
 * Run-loop engine. The discrete-event core is the only one; this enum
 * and ClusterConfig::engine survive only because the end-to-end
 * benchmark sources (e2ebench/src/fleet_global.cc and
 * cluster_observed.cc) still name them. Both go with the next change
 * to the benchmark.
 */
enum class SimEngine
{
    Event = 1,
};

/** Full cluster configuration. */
struct ClusterConfig
{
    int hosts = 4;
    int vcus_per_host = 20;

    /** Run-loop engine; Event is the only one (see SimEngine). */
    SimEngine engine = SimEngine::Event;

    ResourceMappingPolicy mapping;

    /** true = multi-dimensional bin packing; false = legacy slots. */
    bool use_binpack = true;

    /** Worst-case slot bundle for the legacy scheduler. */
    ResourceVector slot_bundle;

    FailurePolicy failure;

    /** Per-VCU fault rates (per hour of simulated time). */
    double vcu_hard_fault_per_hour = 0.0;
    double vcu_silent_fault_per_hour = 0.0;

    /** Silently faulty VCUs look *fast* (black-holing). */
    double silent_speed_factor = 0.4;

    /** NUMA-aware worker placement (Section 4.3: +16-25%). */
    bool numa_aware = true;
    double numa_penalty_factor = 1.20;

    /**
     * Consistent-hash chunk placement (the paper's suggested blast-
     * radius reduction): chunks of one video prefer a small affinity
     * set of VCUs, falling back to any fitting worker.
     */
    bool use_consistent_hashing = false;
    size_t affinity_set_size = 3;

    /**
     * Enable the metrics registry and trace log. Off, every record
     * call reduces to an atomic load, which is what the overhead
     * comparison in bench_observability measures. The
     * step-conservation checker runs regardless (it is an invariant,
     * not a metric).
     */
    bool observability = true;

    /** Trace ring-buffer capacity (most recent events kept). */
    size_t trace_capacity = 1 << 16;

    /**
     * Track which VCUs touched which videos (blast-radius forensics).
     * The tracker grows with distinct (video, VCU) pairs, which at
     * 200k VCUs and millions of steps dominates memory; fleet-scale
     * benches turn it off. Corruption *outcomes* (detected/escaped
     * counters) are always recorded.
     */
    bool track_blast_radius = true;

    /**
     * Span tracing on the deterministic sim timeline (gated by
     * `observability` like the registry and trace log). Each upload
     * gets an end-to-end "upload" span with "queue_wait" and
     * "execute" children on per-worker tracks, plus "host_repair" /
     * "quarantine" lifecycle spans on the host lane. Timestamps are
     * sim time, so a seeded run exports a byte-identical trace.
     */
    bool tracing = true;

    /** Span ring-buffer capacity (most recent spans kept). */
    size_t span_capacity = 1 << 16;

    /**
     * Dapper-style head sampling: trace every Nth upload (uploads
     * whose step id is divisible by the period get the full
     * upload/queue_wait/execute span tree; the rest record nothing).
     * 1 = trace everything — right for tests and small sims, and
     * keeps seeded traces byte-identical. At bench/production scale
     * the per-span cost times every step adds up; sampling keeps the
     * timeline representative at a fraction of the overhead. The SLO
     * monitor always tracks every upload regardless.
     */
    uint32_t span_sample_period = 1;

    /**
     * External tracer override (not owned; must outlive the sim).
     * Null = the sim owns its tracer. Sharing one tracer with the
     * transcode pipeline / optimizer puts every layer on one
     * exported timeline.
     */
    wsva::Tracer *tracer = nullptr;

    /** End-to-end upload latency SLO monitoring. */
    SloConfig slo;

    /**
     * Deadline scheduling / load-shedding policy for live traffic.
     * Deadline-carrying steps (live segments) always dispatch
     * earliest-deadline-first ahead of the FIFO lane; this policy
     * additionally lets the sim *make room* for them under overload.
     */
    struct DeadlinePolicy
    {
        /**
         * Master switch for load shedding. Off, live steps still get
         * EDF ordering but never displace batch work — the
         * graceful-degradation ablation arm.
         */
        bool shed_enabled = false;

        /**
         * Shed when a blocked live step's projected slack
         * (deadline - now - service time) drops below this. 0 sheds
         * only for steps that would already miss; a positive guard
         * sheds while there is still time for the preemption to help.
         */
        double slack_guard_seconds = 0.0;

        /** Also preempt Batch steps already *running* when parking
         *  queued batch work is not enough to place the live step. */
        bool preempt_running_batch = true;

        /**
         * Quiet period: shed steps return to the FIFO lane only once
         * the EDF lane has been empty and nothing was shed for this
         * long. Hysteresis against park/unpark thrash while a surge
         * is still ramping.
         */
        double release_after_seconds = 5.0;
    };
    DeadlinePolicy deadline;

    /**
     * Hosts per rack for the fleet-health hierarchy (rack id =
     * host id / hosts_per_rack). Purely an aggregation grouping; it
     * does not affect scheduling.
     */
    int hosts_per_rack = 2;

    /**
     * Publish a fleet-health rollup snapshot, and sample the
     * utilization and queue series, every N ticks of dt (0 = off).
     * The rollup is double-buffered, so /statusz scrapes never block
     * the sim; gated by `observability` like the registry. The
     * default matches SloConfig::gauge_every_ticks (and the usual
     * Prometheus scrape interval at 1 s ticks), so the rollup reuses
     * the windowed-p99 materialization the gauge path already paid
     * for on the same tick.
     */
    size_t fleet_publish_every_ticks = 15;

    uint64_t seed = 1;
};

/** Aggregated simulation results. */
struct ClusterMetrics
{
    double sim_seconds = 0.0;

    uint64_t steps_completed = 0;
    uint64_t steps_failed = 0;   //!< Hardware failure, retried.
    uint64_t steps_retried = 0;
    uint64_t corrupt_detected = 0;
    uint64_t corrupt_escaped = 0;

    double output_pixels = 0.0;  //!< Good (non-corrupt) pixels.
    double corrupt_pixels = 0.0;

    /** Good output throughput per *provisioned* VCU, Mpix/s. */
    double mpix_per_vcu = 0.0;

    /**
     * Mean utilizations across active workers, sampled at every
     * fleet-health publish. They read 0 when observability or
     * publishing is off, because nothing samples them then.
     */
    double encoder_utilization = 0.0;
    double decoder_utilization = 0.0;
    double host_cpu_utilization = 0.0;

    uint64_t sched_placed = 0;
    /** Blocked placements, counted once per dispatch pass. */
    uint64_t sched_rejected = 0;
    size_t backlog_remaining = 0;

    /** Batch steps parked to the shed lot (lifetime, this run). */
    uint64_t steps_shed = 0;
    /** Batch steps preempted off workers for live work (subset of
     *  steps_shed). */
    uint64_t steps_preempted = 0;
    /** Steps still parked in the shed lot at the horizon. */
    size_t shed_remaining = 0;
    /** Deadline-carrying completions / misses (lifetime ledger from
     *  the SLO monitor, snapshotted at the horizon). */
    uint64_t deadline_completions = 0;
    uint64_t deadline_misses = 0;

    /** Steps that entered the system during this run() call. */
    uint64_t steps_submitted = 0;

    /** Work still on workers when the horizon was reached. Without
     *  this the horizon silently ate in-flight steps and the ledger
     *  did not balance. */
    size_t steps_in_flight = 0;

    uint64_t hosts_repaired = 0;
    int vcus_disabled = 0;
    int workers_quarantined = 0;

    /** Step-conservation invariant audits, one per batch of events
     *  sharing a timestamp. */
    uint64_t conservation_checks = 0;
    uint64_t conservation_violations = 0;

    /** Events popped off the event queue during this run() call. */
    uint64_t events_processed = 0;
};

/** One host: 20 VCUs, each with exclusive worker + health state. */
struct HostModel
{
    int id = 0;
    bool in_repair = false;
    int fault_count = 0;
    std::vector<VcuHealth> vcu_health;
    std::vector<std::unique_ptr<Worker>> workers;
};

/**
 * Arrival callback: steps arriving in (now - dt, now]. run() calls it
 * once per dt, at start + dt, start + 2dt, ... through the horizon.
 */
using ArrivalFn =
    std::function<std::vector<TranscodeStep>(double now, double dt)>;

/**
 * Step ledger over the whole life of a ClusterSim (across run()
 * calls). Every step that ever entered the system must be in exactly
 * one bucket: terminally done, running on a worker, queued, or
 * terminally failed. Failure paths in this simulator retry, so a
 * retried step simply moves back to the backlog bucket; nothing may
 * vanish. holds() is the invariant audited after every event batch.
 */
struct ConservationSnapshot
{
    uint64_t submitted = 0;       //!< Ever entered (submit/arrivals).
    uint64_t completed = 0;       //!< Terminal: good or escaped-corrupt.
    uint64_t failed_terminal = 0; //!< Terminal failures (none today).
    uint64_t in_flight = 0;       //!< Currently on workers.
    uint64_t backlog = 0;         //!< Queued (incl. retries).
    uint64_t shed = 0;            //!< Parked in the shed lot.
    /** Expelled for cross-region reroute (left this cluster without
     *  completing here; the receiving cluster re-counts them in its
     *  own `submitted`). */
    uint64_t rerouted_away = 0;

    bool holds() const
    {
        return submitted == completed + failed_terminal + in_flight +
                                backlog + shed + rerouted_away;
    }
};

/** The cluster simulator. */
class ClusterSim
{
  public:
    /**
     * Top-level schema version of exportJson() — the single source of
     * truth for every JSON surface in the tree (cluster and global
     * exports share it; bench schema checks read it from the emitted
     * documents). Bump here, and only here, on any structural change.
     * History: 2 added "fleet_health"; 3 added the "shed"
     * conservation term and the SLO deadline-miss fields; 4 added the
     * "rerouted_away" conservation term and the global-router export;
     * 5 added the "build" stamp and the "profile" block (continuous
     * profiling layer).
     */
    static constexpr int kExportSchemaVersion = 5;

    explicit ClusterSim(ClusterConfig cfg);

    /** Enqueue a step directly (tests / simple drivers). */
    void submit(const TranscodeStep &step);

    /**
     * Run for @p duration simulated seconds, pulling arrivals from
     * @p arrivals (may be null) every @p dt. dt is also the SLO and
     * telemetry cadence; the clock ends on the first multiple of dt
     * at or past the duration.
     */
    ClusterMetrics run(double duration, double dt,
                       const ArrivalFn &arrivals = nullptr);

    /** Blast-radius data collected during run(). */
    const BlastRadiusTracker &blastRadius() const { return blast_; }

    /** Total provisioned VCUs. */
    int totalVcus() const { return cfg_.hosts * cfg_.vcus_per_host; }

    /** The metrics registry (counters/gauges/histograms/series). */
    const wsva::MetricsRegistry &metricsRegistry() const
    {
        return registry_;
    }
    wsva::MetricsRegistry &metricsRegistry() { return registry_; }

    /** The structured event log. */
    const wsva::TraceLog &traceLog() const { return trace_; }
    wsva::TraceLog &traceLog() { return trace_; }

    /** The span tracer (the override when one was configured). */
    const wsva::Tracer &tracer() const { return *tracer_; }
    wsva::Tracer &tracer() { return *tracer_; }

    /** The SLO monitor. */
    const SloMonitor &slo() const { return slo_; }

    /** The double-buffered fleet-health board (/statusz source). */
    const FleetHealthBoard &fleetHealth() const { return fleet_; }

    /**
     * Build a fleet-health rollup of the current state (worker ->
     * host -> rack -> cluster). Called from the sim thread; scrape
     * threads read the published board instead.
     */
    FleetHealthSnapshot buildFleetHealth(double now) const;

    /**
     * Register the five standard z-pages on @p server: /healthz,
     * /varz, /metrics, /tracez, and /statusz (fed from the published
     * fleet-health rollup). The handlers only touch state that is
     * safe to read while run() executes on another thread — stop the
     * server before destroying the sim.
     */
    void attachDebugServer(wsva::DebugServer &server,
                           const std::string &build_info = "wsva "
                                                           "cluster");

    /** Current step ledger (valid between run() calls). */
    ConservationSnapshot conservation() const;

    /** Steps currently running across all workers. */
    size_t inFlightSteps() const;

    /**
     * Expel every queued step (dispatch lanes + shed lot) for
     * cross-region rerouting. The steps move to the ledger's
     * `rerouted_away` bucket — conservation still holds — and their
     * SLO tracking entries are cancelled (the receiving cluster
     * measures them from its own submission). In-flight work is NOT
     * expelled: steps already on workers run to completion here.
     * Call between run() slices only.
     */
    std::vector<TranscodeStep> expelBacklog();

    /** Lifetime count of steps expelled by expelBacklog(). */
    uint64_t reroutedAway() const { return rerouted_away_total_; }

    /**
     * Pause (or resume) backlog dispatch. While paused, queued steps
     * — including retries failing off still-running workers — stay in
     * the dispatch lanes instead of being re-placed, so a router that
     * quarantines this cluster can expel them between run() slices
     * and the cluster actually drains rather than churning its own
     * retry loop forever. In-flight work is unaffected.
     */
    void setDispatchPaused(bool paused) { dispatch_paused_ = paused; }
    bool dispatchPaused() const { return dispatch_paused_; }

    /**
     * Flip every healthy VCU silently faulty at @p speed_factor —
     * the paper's black-hole mode (Section 4.4: fast, corrupt
     * completions that attract load), injected deterministically so
     * benches can drive one region into it mid-run. Newly assigned
     * steps see the scaled service time; steps already running are
     * untouched. Call between run() slices only.
     */
    void forceSilentFaults(double speed_factor);

    /**
     * JSON dump of the whole observability state: registry metrics,
     * the last @p max_trace_events trace events (plus lifetime event
     * counts), the fleet-health rollup, and the conservation ledger.
     * schema_version 2 added "fleet_health".
     */
    std::string exportJson(size_t max_trace_events = 256) const;

  private:
    /** Per-outcome bookkeeping (retry/corrupt/complete paths);
     *  collectWorker() drives it for every collected step. */
    void processOutcome(HostModel &host, Worker *w,
                        const StepOutcome &outcome, double now);
    /** Collect finished (or failed) steps off one worker and run
     *  processOutcome on each, keeping the in-flight counter. */
    void collectWorker(HostModel &host, Worker *w, double now);
    /** Threshold check + capped repair entry + host drain. Schedules
     *  the RepairDone event, or waitlists the host while the repair
     *  cap is full. */
    void maybeEnterRepair(HostModel &host, double now);
    /** Repair finished: reset health, close lifecycle spans. */
    void restoreHost(HostModel &host, double now);
    /** One arrival batch: pull from @p arrivals and ledger. */
    void pullArrivals(const ArrivalFn &arrivals, double now, double dt);
    /** Publish a fleet-health rollup (caller gates on cadence). */
    void publishRollup(double now);
    /** run() epilogue: final publish + metrics_ fill-in. */
    ClusterMetrics finishRun(double start, double now);
    /** One backlog-dispatch pass at @p now. */
    void scheduleBacklog(double now);
    /** Load shedding for a blocked live step: park queued batch work
     *  and (policy permitting) preempt running batch steps until
     *  @p need fits somewhere. @return a worker @p need now fits on,
     *  or nullptr when shedding could not make room. */
    Worker *shedForDeadline(const TranscodeStep &step,
                            const ResourceVector &need, double now);
    /** Return shed steps to the FIFO lane once the live crunch has
     *  passed (EDF lane empty + release_after_seconds of calm). */
    void maybeUnpark(double now);
    void checkConservation(double now);
    /** Sample the utilization and queue series (publish cadence). */
    void sampleTick(double now);

    // ---- Event handlers (cluster_events.cc) ---------------------
    void handleEvent(const EventQueue::Event &e);
    /** Schedule the next ArrivalBatch (one is pending at a time). */
    void scheduleArrivalBatch(double when);
    void handleArrivalBatch(const ArrivalFn &arrivals, double now);
    void handleHardFault(double now);
    void handleSilentFault(double now);
    void handleRepairDone(double now);
    void handleWorkerDone(int gid, double now);
    void handleSloEval(double now);
    /** (Re)schedule the worker's single completion event to match
     *  its earliest running finish time; cancels a stale one. */
    void updateCompletionEvent(Worker *w);
    /** Cancel worker @p gid's pending completion event, if any. */
    void cancelCompletionEvent(int gid);

    void trackUpload(const TranscodeStep &step, double now);
    /** Whether this step id is head-sampled for span tracing. */
    bool spanSampled(uint64_t step_id) const;
    Worker *workerAt(int host, int vcu);
    Worker *workerByGid(int gid);
    HostModel &hostOfGid(int gid);

    ClusterConfig cfg_;
    wsva::Rng rng_;
    double clock_ = 0.0; //!< Continuous across run() calls.
    std::vector<HostModel> hosts_;
    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<ConsistentHashRing> ring_;
    DispatchQueue backlog_;
    RepairQueue repairs_;

    // Preemption candidates: gids of workers that took a Batch step,
    // in assignment order. shedForDeadline() pops lazily (stale
    // entries — batch already drained — are skipped), so finding a
    // victim is amortized O(1) instead of an O(workers) scan per
    // blocked live step.
    std::deque<int> preempt_candidates_;
    // One flag per worker gid: is it already in preempt_candidates_?
    // Keeps the deque at most one entry per worker regardless of how
    // many batch steps land on it between sheds.
    std::vector<char> preempt_candidate_flag_;
    // Sim time of the last shed/preemption; -infinity before any.
    // maybeUnpark()'s calm-period hysteresis measures from here.
    double last_shed_time_ = -std::numeric_limits<double>::infinity();
    BlastRadiusTracker blast_;
    wsva::MetricsRegistry registry_;
    wsva::TraceLog trace_;
    wsva::Tracer own_tracer_;
    wsva::Tracer *tracer_ = nullptr; //!< cfg_.tracer or &own_tracer_.
    SloMonitor slo_;
    FleetHealthBoard fleet_;
    uint64_t ticks_ = 0; //!< Lifetime count of dt steps (cadences).

    // Lifetime per-host retry/completion counts feeding the rollup's
    // per-level retry rates (indexed by host id).
    std::vector<uint64_t> host_retries_;
    std::vector<uint64_t> host_completions_;

    // Open lifecycle intervals, closed into sim spans when they end
    // (-1 = none open). Indexed by host id / global worker id.
    std::vector<double> repair_enter_;
    std::vector<double> quarantine_enter_;

    // Pre-resolved handles for the per-step counters (hot paths run
    // once per step; handles skip the name lookup).
    wsva::CounterHandle submitted_counter_;
    wsva::CounterHandle completed_counter_;
    wsva::CounterHandle retried_counter_;
    wsva::CounterHandle failed_counter_;

    // Lifetime step ledger (never reset; spans run() calls).
    uint64_t submitted_total_ = 0;
    uint64_t completed_total_ = 0;
    uint64_t failed_terminal_total_ = 0;
    uint64_t rerouted_away_total_ = 0;

    // Backlog dispatch gate (setDispatchPaused): true while a global
    // router holds this cluster in quarantine.
    bool dispatch_paused_ = false;

    // Steps currently on workers, maintained incrementally at every
    // assign/collect/abort so conservation checks and fleet rollups
    // are O(1) instead of an O(workers) scan. Debug builds cross-
    // check it against the full scan (small fleets only).
    uint64_t in_flight_count_ = 0;

    /** Live state of one run() call (stack-owned there; ev_ points
     *  at it so the helpers can schedule and cancel events). */
    struct EventRun
    {
        EventQueue queue;
        double dt = 0.0;
        double end = 0.0; //!< start + duration (arrival-chain bound).
        double hard_rate = 0.0; //!< Fleet-wide hard faults per second.
        double silent_rate = 0.0;
        const ArrivalFn *arrivals = nullptr;
        //!< Per-worker pending completion event (gid-indexed).
        std::vector<EventQueue::Handle> completion_ev;
        std::deque<int> repair_waiting; //!< Hosts deferred by the cap.
        std::vector<char> repair_waitlisted; //!< Dedup flag, host id.
        bool batch_pending = false;    //!< An ArrivalBatch is queued.
        bool work_added = false;       //!< Backlog dispatch needed.
        bool capacity_changed = false; //!< A worker freed capacity.
    };
    EventRun *ev_ = nullptr; //!< Non-null only inside run().

    // Time-weighted utilization accumulators.
    wsva::RunningStat enc_util_samples_;
    wsva::RunningStat dec_util_samples_;
    wsva::RunningStat cpu_util_samples_;

    ClusterMetrics metrics_;
};

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_CLUSTER_H
