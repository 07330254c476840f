/**
 * @file
 * Global multi-cluster serving: N independent cluster simulations
 * composed into regions behind one router (ROADMAP item 5).
 *
 * The router owns placement, the regions own execution. Placement is
 * consistent-hash primary (one ConsistentHashRing over region ids,
 * keyed by video id) with two modifiers:
 *
 *  - locality: a step tagged with an origin region prefers it, so a
 *    healthy fleet routes almost everything locally;
 *  - load-aware spill-over: when the preferred region's admission
 *    signal degrades (queued + running work per VCU crosses the spill
 *    threshold), the step spills to the next-best region on the ring,
 *    or failing that to the least-loaded routable region.
 *
 * Health gating is the black-hole defense (Section 4.4): each region
 * carries a RegionHealthGate fed with per-slice retry/completion
 * deltas from the region's fleet rollup counters; a region crossing
 * the quarantine threshold is removed from the ring, its backlog is
 * expelled and rerouted, and hysteretic re-admission (rate recovered
 * + minimum dwell) puts it back. With gating off the gates still
 * observe — the bench's ablation arm — but never act.
 *
 * The conservation ledger extends across regions: every step the
 * router ever accepted is, at every router step, in exactly one of
 *   Σ per-region (completed + failed_terminal + in_flight + backlog
 *   + shed) + router-pending
 * where router-pending holds steps with no routable region (all
 * quarantined). Per-region `rerouted_away` is what makes each
 * region's own ledger balance when the router expels its backlog.
 */

#ifndef WSVA_GLOBAL_GLOBAL_ROUTER_H
#define WSVA_GLOBAL_GLOBAL_ROUTER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/consistent_hash.h"
#include "common/metrics.h"
#include "common/snapshot_board.h"
#include "global/region_health.h"

namespace wsva {
class DebugServer;
} // namespace wsva

namespace wsva::global {

/** Router configuration. */
struct GlobalRouterConfig
{
    /** Number of regions (each one full ClusterSim). */
    int regions = 2;

    /**
     * Per-region cluster template. Region r runs a copy with
     * seed = cluster.seed + r * kSeedStride; everything else is
     * shared. The event engine is the intended fit at fleet scale.
     */
    wsva::cluster::ClusterConfig cluster;
    static constexpr uint64_t kSeedStride = 1000;

    /** Router decision cadence: regions advance in slices of this
     *  many sim seconds between routing/health decisions. */
    double step_seconds = 4.0;

    /** Sim tick (or event-engine arrival quantum) within a slice. */
    double dt = 0.5;

    /** Virtual nodes per region on the routing ring. */
    static constexpr int kRingVirtualNodes = 64;

    /**
     * Admission signal: (backlog + in-flight) per provisioned VCU.
     * A preferred region above this spills new placements to the
     * next-best region; set generously — spilling is for overload,
     * not load-balancing noise.
     */
    double spill_load_factor = 4.0;

    /** Per-region health-gate thresholds. */
    RegionHealthConfig health;

    /** Act on the gates (remove/re-admit ring membership, expel and
     *  reroute). Off = observe-only, the bench ablation arm. */
    bool health_gating = true;

    /** Router-level metrics registry on/off. */
    bool observability = true;
};

/** Per-region routing/health state, updated every router step. */
struct RegionStatus
{
    int id = 0;
    bool quarantined = false;

    /** Steps the router submitted into this region (fresh + rerouted). */
    uint64_t routed = 0;
    /** Subset of `routed` that arrived via reroute or spill. */
    uint64_t rerouted_in = 0;
    /** Steps expelled from this region's backlog by quarantine. */
    uint64_t expelled = 0;

    /** Attempt accounting accumulated from slice deltas. */
    uint64_t retries = 0;
    uint64_t completions = 0;

    double window_retry_rate = 0.0;
    uint64_t quarantine_entries = 0;
    uint64_t readmissions = 0;

    /**
     * Retry amplification: executed attempts per terminal completion,
     * (completions + retries) / completions. 1.0 = every step ran
     * exactly once; a black-holing region's amplification diverges as
     * completions stall while retries churn.
     */
    double retryAmplification() const
    {
        return completions > 0
                   ? static_cast<double>(completions + retries) /
                         static_cast<double>(completions)
                   : 0.0;
    }
};

/** The cross-region step ledger. */
struct GlobalConservation
{
    uint64_t submitted = 0; //!< Unique arrivals the router accepted.
    uint64_t completed = 0;
    uint64_t failed_terminal = 0;
    uint64_t in_flight = 0;
    uint64_t backlog = 0;
    uint64_t shed = 0;
    uint64_t pending = 0; //!< Held by the router (no routable region).

    bool holds() const
    {
        return submitted == completed + failed_terminal + in_flight +
                                backlog + shed + pending;
    }
};

/** Region-tagged arrival source: steps arriving in region @p region
 *  over (now - dt, now]. */
using RegionalArrivalFn = std::function<std::vector<
    wsva::cluster::TranscodeStep>(int region, double now, double dt)>;

/** The global router. */
class GlobalRouter
{
  public:
    explicit GlobalRouter(GlobalRouterConfig cfg);

    /** Route one step now (fresh arrival). */
    void submit(const wsva::cluster::TranscodeStep &step);

    /**
     * Advance the whole fleet by @p duration sim seconds: per router
     * step, pull regional arrivals, route, advance every region one
     * slice (in parallel, one thread per hardware thread), run the
     * health gates, and audit the global ledger.
     */
    void runFor(double duration,
                const RegionalArrivalFn &arrivals = nullptr);

    int regions() const { return cfg_.regions; }
    double now() const { return clock_; }

    /** Direct region access (fault injection, per-region exports). */
    wsva::cluster::ClusterSim &region(int r)
    {
        return *sims_[static_cast<size_t>(r)];
    }
    const wsva::cluster::ClusterSim &region(int r) const
    {
        return *sims_[static_cast<size_t>(r)];
    }

    const RegionStatus &status(int r) const
    {
        return status_[static_cast<size_t>(r)];
    }

    /** Regions currently on the routing ring (router thread only;
     *  scrape threads read the published count). */
    int routableRegions() const
    {
        return static_cast<int>(ring_.workerCount());
    }

    /** Steps parked in the router (no routable region). */
    size_t pendingSteps() const { return pending_.size(); }

    /** The cross-region ledger, audited every router step. */
    GlobalConservation conservation() const;

    uint64_t auditChecks() const { return audit_checks_; }
    uint64_t auditViolations() const { return audit_violations_; }

    /** Unique arrivals accepted (ledger `submitted`). */
    uint64_t submittedTotal() const { return submitted_total_; }

    /** Terminal completions across all regions. */
    uint64_t completedTotal() const;

    /** Executed attempts across all regions per completion. */
    double retryAmplification() const;

    /** completed / submitted — the bench's availability number. */
    double availability() const;

    /** Placements that left the preferred region (spill + reroute). */
    uint64_t reroutedTotal() const { return rerouted_total_; }

    /** The router-level metrics registry (global.* gauges). */
    const wsva::MetricsRegistry &metricsRegistry() const
    {
        return registry_;
    }
    wsva::MetricsRegistry &metricsRegistry() { return registry_; }

    /** The /statusz region table (also readable directly). */
    std::string statusText() const;

    /**
     * Register z-pages for the router on @p server: /healthz, /varz,
     * /metrics (router registry), /statusz (region table). Handlers
     * read the published RouterStatus and the registry only, so
     * scrapes never block router steps or touch routing state.
     */
    void attachDebugServer(wsva::DebugServer &server,
                           const std::string &build_info =
                               "wsva global router");

    /**
     * JSON export: schema_version (shared constant with
     * ClusterSim::exportJson), global ledger + routing counters, and
     * the per-region status/conservation table.
     */
    std::string exportJson() const;

  private:
    /** Route @p step; fresh arrivals ledger a submission, rerouted
     *  steps do not (they are already in the ledger). */
    void routeStep(const wsva::cluster::TranscodeStep &step,
                   bool fresh);
    /** Pick the destination region for @p step, or -1 when nothing
     *  is routable. */
    int pickRegion(const wsva::cluster::TranscodeStep &step) const;
    /** Preferred region: tagged origin when routable, else the ring
     *  primary for the step's video id. */
    int preferredRegion(const wsva::cluster::TranscodeStep &step) const;
    /** Admission signal: (backlog + in-flight) per VCU. */
    double loadFactor(int r) const;
    /** Expel region @p r's backlog and reroute every expelled step. */
    void expelAndReroute(int r);
    /** Re-route steps parked while no region was routable. */
    void drainPending();
    /** Health-gate pass over @p r with this slice's delta metrics. */
    void observeRegion(int r, const wsva::cluster::ClusterMetrics &m);
    void auditConservation();
    void publishStatus();
    void exportGauges();

    GlobalRouterConfig cfg_;
    std::vector<std::unique_ptr<wsva::cluster::ClusterSim>> sims_;
    /** Each region's metrics for the last slice, written by the
     *  region fan-out and read by the health pass. */
    std::vector<wsva::cluster::ClusterMetrics> deltas_;
    std::vector<RegionHealthGate> gates_;
    std::vector<RegionStatus> status_;
    wsva::cluster::ConsistentHashRing ring_;
    std::deque<wsva::cluster::TranscodeStep> pending_;
    double clock_ = 0.0;

    uint64_t submitted_total_ = 0;
    uint64_t rerouted_total_ = 0;
    uint64_t audit_checks_ = 0;
    uint64_t audit_violations_ = 0;

    wsva::MetricsRegistry registry_;
    // Pre-resolved handles for the per-step counters (routeStep runs
    // once per step; a handle skips the name string and the lock).
    wsva::CounterHandle submitted_counter_;
    wsva::CounterHandle rerouted_counter_;

    /** What the router's z-pages read, republished every router
     *  step: scrape threads never touch the ring or the sims. */
    struct RouterStatus
    {
        std::string text; //!< The /statusz region table.
        int routable = 0; //!< Regions on the ring, for /healthz.
    };
    wsva::SnapshotBoard<RouterStatus> status_board_; //!< Never null.
};

} // namespace wsva::global

#endif // WSVA_GLOBAL_GLOBAL_ROUTER_H
