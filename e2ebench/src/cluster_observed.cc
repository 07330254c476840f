/**
 * @file
 * cluster_observed: one cluster with telemetry at production defaults.
 * Each op is one ClusterSim::run slice of about 2,000 hosts held near
 * 85% occupancy by upload traffic (with the optimizer's batch probe
 * steps) plus fixed live streams with 5-s deadlines; shedding is on,
 * with light faults and repairs. Metrics, the trace log, spans at
 * span_sample_period = 1, the SLO monitor and the fleet rollup are all
 * at their ClusterConfig defaults. It skips both the router and the
 * codec. Every run() call ends with a fleet rollup at its horizon, on
 * top of the 15-tick cadence, so that per-slice rollup is part of what
 * an op costs.
 *
 * The traced run also measures the observability overhead at the
 * production rollup cadence: one unsliced run() of the observed cell,
 * then of a telemetry-dark twin from the same seed whose ledger must
 * match the observed sim's exactly.
 */

#include <map>
#include <memory>

#include "cluster/cluster.h"
#include "workload/traffic.h"
#include "workloads.h"

namespace e2e {

using wsva::cluster::ClusterConfig;
using wsva::cluster::ClusterMetrics;
using wsva::cluster::ClusterSim;
using wsva::cluster::ConservationSnapshot;
using wsva::cluster::SimEngine;
using wsva::cluster::TranscodeStep;

namespace {

constexpr double kSliceSeconds = 1.0; //!< One op: one run() slice.
constexpr double kTickSeconds = 0.5;
constexpr double kDeadlineSeconds = 5.0;
/** 20-s upload chunks: the fleet reaches high occupancy at a step rate
 *  (and event count) one cluster can simulate many times a second. */
constexpr int kUploadChunkFrames = 600;
constexpr double kHardFaultsPerVcuHour = 0.01;
constexpr double kSilentFaultsPerVcuHour = 0.005;
/** Live step and stream ids live above any upload id. */
constexpr uint64_t kLiveIdBase = uint64_t{1} << 40;

ClusterConfig
clusterConfig(const ClusterObservedSize &size, uint64_t seed, bool observed)
{
    ClusterConfig cfg;
    cfg.hosts = size.hosts;
    cfg.vcus_per_host = 20;
    cfg.engine = SimEngine::Event;
    cfg.seed = deriveSeed(seed, 1);
    cfg.vcu_hard_fault_per_hour = kHardFaultsPerVcuHour;
    cfg.vcu_silent_fault_per_hour = kSilentFaultsPerVcuHour;
    cfg.deadline.shed_enabled = true;
    cfg.deadline.slack_guard_seconds = 4.0;
    // The forensic (video -> VCU) map grows without bound with every
    // completed step, which would make the load non-stationary; it is
    // not telemetry, so it is off in both arms.
    cfg.track_blast_radius = false;
    if (!observed) {
        cfg.observability = false;
        cfg.slo.enabled = false;
    }
    return cfg;
}

/** One sim plus the traffic that feeds it. */
struct Cell
{
    std::unique_ptr<ClusterSim> sim;
    std::unique_ptr<wsva::workload::UploadTraffic> uploads;
    std::unique_ptr<wsva::workload::LiveTraffic> live;
};

Cell
makeCell(const ClusterObservedSize &size, uint64_t seed, bool observed)
{
    Cell c;
    c.sim = std::make_unique<ClusterSim>(clusterConfig(size, seed, observed));
    wsva::workload::UploadTrafficConfig up;
    up.uploads_per_second = size.uploads_per_second;
    up.optimizer_probes = true;
    up.chunk_frames = kUploadChunkFrames;
    up.seed = deriveSeed(seed, 2);
    c.uploads = std::make_unique<wsva::workload::UploadTraffic>(up);
    wsva::workload::LiveTrafficConfig lv;
    lv.concurrent_streams = size.live_streams;
    lv.deadline_seconds = kDeadlineSeconds;
    lv.seed = deriveSeed(seed, 3);
    c.live = std::make_unique<wsva::workload::LiveTraffic>(lv);
    return c;
}

/** The cell's arrivals: uploads plus live segments, ids kept apart. */
std::vector<TranscodeStep>
cellArrivals(Cell &c, double now, double dt)
{
    auto steps = c.uploads->arrivals(now, dt);
    for (auto &seg : c.live->arrivals(now, dt)) {
        seg.id += kLiveIdBase;
        seg.video_id += kLiveIdBase;
        steps.push_back(std::move(seg));
    }
    return steps;
}

/** Whether the run() that returned @p m passed every conservation
 *  audit. */
bool
audited(const ClusterSim &sim, const ClusterMetrics &m)
{
    return m.conservation_violations == 0 && sim.conservation().holds();
}

bool
sameLedger(const ConservationSnapshot &a, const ConservationSnapshot &b)
{
    return a.submitted == b.submitted && a.completed == b.completed &&
           a.failed_terminal == b.failed_terminal &&
           a.in_flight == b.in_flight && a.backlog == b.backlog &&
           a.shed == b.shed && a.rerouted_away == b.rerouted_away;
}

/** Per-slice ClusterMetrics summed over a stretch of ops. The
 *  scheduler's placed/rejected are lifetime counts in every slice's
 *  metrics, so those keep the latest value. */
struct SliceTotals
{
    uint64_t retried = 0, shed = 0, events = 0, placed_total = 0,
             rejected_total = 0;

    void add(const ClusterMetrics &m)
    {
        retried += m.steps_retried;
        shed += m.steps_shed;
        events += m.events_processed;
        placed_total = m.sched_placed;
        rejected_total = m.sched_rejected;
    }
};

} // namespace

RunResult
runClusterObserved(const RunArgs &args, const ClusterObservedSize &size)
{
    RunResult result;

    TraceArm arm;
    static const int kGenPhase = wsva::prof::phaseId("workload/gen");
    Cell *feeding = nullptr;
    const wsva::cluster::ArrivalFn arrivals = [&](double now, double dt) {
        LayerCall call(arm.tracer(), "arrivals", kGenPhase);
        return cellArrivals(*feeding, now, dt);
    };

    // Set-up: build the cluster and run it to steady occupancy. The
    // previous round's cell is freed first, so only one is resident.
    Workload w;
    w.rounds = size.rounds;
    w.window_ops = size.window_ops;
    // After the traced and plain arms, the per-layer reads replay the
    // slices on a dark twin and run four unsliced runs.
    w.traced_share = 1.0 / 8;
    Cell cell;
    ClusterMetrics warm;
    SliceTotals window;
    uint64_t spans0 = 0, tracked0 = 0, missed0 = 0;
    w.setup = [&](int) {
        cell = Cell{};
        cell = makeCell(size, args.seed, /*observed=*/true);
        feeding = &cell;
        warm = cell.sim->run(size.warmup_seconds, kTickSeconds, arrivals);
        window = SliceTotals{};
        spans0 = cell.sim->tracer().recorded();
        tracked0 = cell.sim->slo().deadlineTracked();
        missed0 = cell.sim->slo().deadlineMissed();
    };

    bool have_window = false;
    w.op = [&](size_t i) {
        ClusterSim &sim = *cell.sim;
        OpSample s;
        ClusterMetrics m;
        {
            LayerCall call(arm.tracer(), "cluster.run", -1);
            const double t0 = nowSeconds();
            m = sim.run(kSliceSeconds, kTickSeconds, arrivals);
            s.ms = (nowSeconds() - t0) * 1e3;
        }
        s.steps = m.steps_completed;
        s.ok = audited(sim, m);
        if (i < size.window_ops)
            window.add(m);
        if (i + 1 == size.window_ops) {
            std::map<std::string, double> fp;
            const uint64_t tracked = sim.slo().deadlineTracked() - tracked0;
            const uint64_t missed = sim.slo().deadlineMissed() - missed0;
            // Lifetime ratios (set-up included), as GlobalRouter
            // reports them: completed / submitted, and executed
            // attempts per completion.
            const ConservationSnapshot ledger = sim.conservation();
            const double completed = static_cast<double>(ledger.completed);
            fp["sim_availability"] =
                completed / static_cast<double>(ledger.submitted);
            fp["sim_retry_amp"] =
                (completed + static_cast<double>(warm.steps_retried +
                                                 window.retried)) /
                completed;
            fp["sim_upload_p99_s"] = sim.slo().lifetimeQuantile(0.99);
            fp["sim_deadline_miss_rate"] =
                tracked > 0 ? static_cast<double>(missed) /
                                  static_cast<double>(tracked)
                            : 0.0;
            const uint64_t placed = window.placed_total - warm.sched_placed;
            const uint64_t rejected =
                window.rejected_total - warm.sched_rejected;
            fp["cluster.edf_completions"] = static_cast<double>(tracked);
            fp["cluster.placed"] = static_cast<double>(placed);
            fp["cluster.rejected"] = static_cast<double>(rejected);
            fp["cluster.place_ratio"] =
                placed + rejected > 0
                    ? static_cast<double>(placed) /
                          static_cast<double>(placed + rejected)
                    : 0.0;
            fp["cluster.retries"] = static_cast<double>(window.retried);
            fp["cluster.shed"] = static_cast<double>(window.shed);
            fp["cluster.events"] = static_cast<double>(window.events);
            fp["common.trace_spans"] =
                static_cast<double>(sim.tracer().recorded() - spans0);
            // Occupancy: mean encoder-core utilization over all VCUs.
            fp["sim_encoder_utilization"] =
                sim.buildFleetHealth(size.warmup_seconds +
                                     static_cast<double>(i + 1) *
                                         kSliceSeconds)
                    .encoder_utilization;
            uint64_t h = fnv1a(nullptr, 0);
            for (uint64_t v : {ledger.submitted, ledger.completed,
                               ledger.failed_terminal, ledger.in_flight,
                               ledger.backlog, ledger.shed, placed,
                               rejected, window.retried, window.shed,
                               window.events, tracked, missed})
                h = fnvMix(h, v);
            recordWindow(result, have_window, std::move(fp), h);
        }
        return s;
    };
    w.per_layer = [&](RunResult &r, const TracedPass &pass) {
        const double n = static_cast<double>(pass.ops);
        // Arrivals are pulled inside ClusterSim::run.
        addEventCoreLayer(r, arm, pass,
                          phase(pass.profile, "cluster/run").incl_ms -
                              phase(pass.profile, "workload/gen").incl_ms);
        r.set("cluster.slo_eval_ms",
              phase(pass.profile, "event/slo_eval").excl_ms / n, "ms");

        // Observability overhead at the production rollup cadence. Every
        // run() call also rolls up at its horizon, so 1-s slices roll up
        // 8.5x as often as the 15-tick cadence alone. The arms are
        // therefore unsliced run()s of n seconds: the observed cell and a
        // telemetry-dark twin from the same seed that has replayed the
        // observed cell's calls, so the two ledgers must match. They run
        // observed, dark, dark, observed, so the machine's drift over
        // the four cancels to first order. The profiler's timers are on
        // throughout, so both arms carry the same per-event timer cost;
        // only the observed runs publish, which gives
        // cluster.publish_ms.
        Cell dark = makeCell(size, args.seed, /*observed=*/false);
        feeding = &dark;
        dark.sim->run(size.warmup_seconds, kTickSeconds, arrivals);
        for (size_t i = 0; i < 2 * pass.ops; ++i) {
            const ClusterMetrics m =
                dark.sim->run(kSliceSeconds, kTickSeconds, arrivals);
            ++r.attempted;
            r.failed += audited(*dark.sim, m) ? 0 : 1;
        }

        const auto unsliced = [&](Cell &c) {
            feeding = &c;
            const double t0 = nowSeconds();
            const ClusterMetrics m =
                c.sim->run(n * kSliceSeconds, kTickSeconds, arrivals);
            const double ms = (nowSeconds() - t0) * 1e3;
            ++r.attempted;
            r.failed += audited(*c.sim, m) ? 0 : 1;
            return ms;
        };
        auto &profiler = wsva::prof::ProfileRegistry::instance();
        profiler.reset();
        profiler.setEnabled(true);
        double observed_ms = unsliced(cell);
        double dark_ms = unsliced(dark);
        dark_ms += unsliced(dark);
        observed_ms += unsliced(cell);
        profiler.setEnabled(false);
        if (!sameLedger(dark.sim->conservation(), cell.sim->conservation()))
            r.fail("telemetry-dark twin's ledger differs from the "
                   "observed sim's");
        r.set("common.obs_overhead_frac", observed_ms / dark_ms - 1.0,
              "ratio");
        r.set("cluster.publish_ms",
              phase(profiler.snapshot(), "cluster/publish").incl_ms /
                  (2 * n),
              "ms");
    };

    runWorkload(args, arm, w, result);
    return result;
}

} // namespace e2e
