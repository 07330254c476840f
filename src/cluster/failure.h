/**
 * @file
 * Fleet failure management (Section 4.4): host-level fault
 * accumulation with a capped repair queue, and blast-radius tracking
 * of which VCUs touched which videos.
 */

#ifndef WSVA_CLUSTER_FAILURE_H
#define WSVA_CLUSTER_FAILURE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace wsva {
class MetricsRegistry;
class TraceLog;
} // namespace wsva

namespace wsva::cluster {

/** Failure-management policy knobs. */
struct FailurePolicy
{
    /** Faults accumulated before a host is marked unusable. */
    int host_fault_threshold = 3;

    /** Cap on hosts simultaneously in repair (protects capacity
     *  against faulty repair signals). */
    int repair_cap = 2;

    /** Wall time a repair takes. */
    double repair_seconds = 4 * 3600.0;

    /** Workers run golden transcodes before serving a VCU. */
    bool golden_screening = true;

    /** A worker hitting a hardware failure aborts all its work. */
    bool abort_on_failure = true;

    /** Probability the integrity checks catch a corrupt chunk. */
    double integrity_detect_prob = 0.9;
};

/** Capped repair queue for hosts. */
class RepairQueue
{
  public:
    explicit RepairQueue(const FailurePolicy &policy) : policy_(policy) {}

    /** Attach observability sinks (optional, not owned). Repair
     *  entries/completions become host_enter_repair / host_repaired
     *  trace events; cap deferrals feed repair.cap_deferrals. */
    void attachObservability(wsva::MetricsRegistry *metrics,
                             wsva::TraceLog *trace)
    {
        metrics_ = metrics;
        trace_ = trace;
    }

    /**
     * Try to send a host to repair at time @p now. Returns false if
     * the cap is reached (the host stays in production, degraded).
     */
    bool tryEnter(int host_id, double now);

    /** Hosts whose repair completes at or before @p now. */
    std::vector<int> collectRepaired(double now);

    /**
     * Scheduled completion time of a host currently in repair
     * (asserts contains(host_id)). The simulator schedules its
     * RepairDone event here instead of polling.
     */
    double completionTime(int host_id) const;

    size_t inRepair() const { return repairing_.size(); }
    bool contains(int host_id) const;

    uint64_t totalRepairs() const { return total_repairs_; }
    uint64_t capDeferrals() const { return cap_deferrals_; }

  private:
    FailurePolicy policy_;
    std::map<int, double> repairing_; //!< host -> completion time.
    uint64_t total_repairs_ = 0;
    uint64_t cap_deferrals_ = 0;
    wsva::MetricsRegistry *metrics_ = nullptr;
    wsva::TraceLog *trace_ = nullptr;
};

/**
 * Records which VCUs processed chunks of each video, so corruption
 * can be correlated back to a device, and tracks corrupt outcomes
 * (detected by integrity checks vs escaped).
 */
class BlastRadiusTracker
{
  public:
    /** Record that a chunk of @p video ran on @p vcu_global_id. */
    void recordChunk(uint64_t video_id, int vcu_global_id);

    /** A corrupt chunk was detected (and the video re-processed). */
    void recordDetectedCorruption(uint64_t video_id, int vcu_global_id);

    /** A corrupt chunk escaped into the serving path. */
    void recordEscapedCorruption(uint64_t video_id, int vcu_global_id);

    /** Number of distinct VCUs that touched a video. */
    size_t vcusTouching(uint64_t video_id) const;

    /** Videos with at least one escaped-corrupt chunk. */
    size_t corruptVideos() const { return corrupt_videos_.size(); }

    uint64_t detectedChunks() const { return detected_; }
    uint64_t escapedChunks() const { return escaped_; }

    /** VCU most implicated in detected corruption (-1 if none). */
    int mostSuspectVcu() const;

    /** Largest affinity spread: max distinct VCUs on any one video. */
    size_t maxVcusPerVideo() const;

    /** Export blast-radius gauges (blast.*) into @p metrics. */
    void exportTo(wsva::MetricsRegistry &metrics) const;

  private:
    std::map<uint64_t, std::set<int>> video_vcus_;
    std::set<uint64_t> corrupt_videos_;
    std::map<int, uint64_t> vcu_detections_;
    uint64_t detected_ = 0;
    uint64_t escaped_ = 0;
};

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_FAILURE_H
