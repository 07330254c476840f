/**
 * @file
 * Hierarchical fleet-health rollup: per-worker VCU health aggregated
 * worker -> host -> rack -> cluster, with per-level state counts,
 * utilization and retry-rate signals, and the SLO burn-rate alert
 * surfaced at the top.
 *
 * This is the data behind /statusz: Section 4.4's failure management
 * (quarantine, repair queues, blast radius) is operable only if
 * someone can *watch* the fleet live, and a flat metrics dump does
 * not answer "which rack is burning?". Every worker is classified
 * into exactly one state, so the counts reconcile at every level:
 * healthy + degraded + quarantined + in_repair == fleet size, always.
 *
 * Snapshots are published through a SnapshotBoard
 * (common/snapshot_board.h): the sim builds the next snapshot off to
 * the side and swaps it in, while scrape threads keep reading the
 * previous buffer. The scrape path therefore never blocks the sim,
 * and the sim never waits for a slow scraper.
 */

#ifndef WSVA_CLUSTER_FLEET_HEALTH_H
#define WSVA_CLUSTER_FLEET_HEALTH_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/snapshot_board.h"

namespace wsva::cluster {

/**
 * Exactly one state per worker, classified in priority order:
 * a worker on a host in repair is InRepair regardless of its own
 * flags; a quarantined (refused) worker is Quarantined even if its
 * VCU is also degraded; a disabled or silently-faulty VCU is
 * Degraded; everything else is Healthy. The priority order is what
 * makes the per-level counts partition the fleet.
 */
enum class WorkerHealthState : int {
    Healthy = 0,
    Degraded,    //!< VCU disabled or silently corrupting.
    Quarantined, //!< Worker refused its VCU after a failed screen.
    InRepair,    //!< Host is in the repair queue.
};

/** Stable snake_case name of a worker health state. */
const char *workerHealthStateName(WorkerHealthState state);

/** Classify one worker (see WorkerHealthState for the priority). */
WorkerHealthState classifyWorker(bool host_in_repair, bool refused,
                                 bool vcu_disabled, bool silent_fault);

/** Worker-state counts at one level of the hierarchy. */
struct HealthCounts
{
    uint64_t healthy = 0;
    uint64_t degraded = 0;
    uint64_t quarantined = 0;
    uint64_t in_repair = 0;

    uint64_t total() const
    {
        return healthy + degraded + quarantined + in_repair;
    }

    void add(WorkerHealthState state);
    void merge(const HealthCounts &other);
};

/** Rollup of one host or rack. */
struct NodeHealth
{
    int id = 0;
    HealthCounts counts;

    /** Mean encoder utilization across this node's workers. */
    double encoder_utilization = 0.0;

    /** retries / (completions + retries) over the sim's lifetime. */
    double retry_rate = 0.0;

    uint64_t retries = 0;
    uint64_t completions = 0;
};

/** One published view of the whole fleet. */
struct FleetHealthSnapshot
{
    double sim_time = 0.0;
    uint64_t tick = 0;
    int vcus_per_host = 0;
    int hosts_per_rack = 1;

    HealthCounts cluster;
    double encoder_utilization = 0.0;
    double retry_rate = 0.0;
    /** Raw lifetime counts behind retry_rate, exported in the JSON
     *  rollup so a scraper can difference two rollups into a
     *  windowed rate, which the pre-divided ratio cannot give. The
     *  global router's health gate does not read them: it takes each
     *  run() slice's ClusterMetrics (GlobalRouter::observeRegion). */
    uint64_t retries = 0;
    uint64_t completions = 0;
    uint64_t backlog = 0;
    uint64_t in_flight = 0;
    /** Batch steps parked in the shed lot (live load shedding). */
    uint64_t shed = 0;

    /** SLO surface (copied from the monitor at publish time). */
    bool slo_alert_active = false;
    double slo_burn_rate = 0.0;
    double slo_window_p99 = 0.0;
    double slo_queue_age = 0.0;
    /** Live-serving surface: deadline-carrying completions. */
    uint64_t deadline_tracked = 0;
    double deadline_miss_rate = 0.0; //!< Windowed miss fraction.

    std::vector<NodeHealth> racks;
    std::vector<NodeHealth> hosts;

    /** The /statusz rendering: hierarchy table + SLO banner. */
    std::string toText() const;

    /** JSON object (embedded in ClusterSim::exportJson). */
    std::string toJson() const;

    /**
     * Export the per-level gauges into @p registry:
     * fleet.{healthy,degraded,quarantined,in_repair}, cluster
     * utilization/retry-rate, and per-rack
     * fleet.rack<id>.{healthy,utilization,retry_rate}.
     */
    void exportGauges(wsva::MetricsRegistry &registry) const;
};

/** The published rollup: null before the first publish. */
using FleetHealthBoard = wsva::SnapshotBoard<FleetHealthSnapshot>;

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_FLEET_HEALTH_H
