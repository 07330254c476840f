/**
 * @file
 * The benchmark's three workloads. Each size struct defaults to the
 * benchmark's own scale; the tests shrink it to a smoke-size run of
 * the same code path.
 */

#ifndef E2EBENCH_WORKLOADS_H
#define E2EBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness.h"
#include "platform/pipeline.h"

namespace e2e {

/** upload_ladder: one op is one upload through transcodeMot. */
struct UploadLadderSize
{
    int width = 192;        //!< Corpus base width (vbenchCorpus).
    int frames = 12;        //!< Frames per clip.
    int chunk_frames = 4;   //!< Closed-GOP chunk length.
    int rungs = 3;          //!< Ladder rungs at and below the source.
    int rounds = 4; //!< Set-up + measure rounds of an untraced run.
};

/** fleet_global: one op is one GlobalRouter::runFor router step. */
struct FleetGlobalSize
{
    int regions = 8;
    int hosts_per_region = 1250; //!< x 20 VCUs = 200k VCUs at 8 regions.
    double uploads_per_second = 60.0; //!< Per region.
    double warmup_seconds = 30.0;     //!< Sim time before the fault.
    double settle_seconds = 20.0;     //!< Sim time after it.
    int rounds = 4; //!< Each round after the first draws fresh inputs.
    size_t window_ops = 20; //!< Fingerprint window.
};

/** cluster_observed: one op is one ClusterSim::run slice. */
struct ClusterObservedSize
{
    int hosts = 2000;
    double uploads_per_second = 4000.0; //!< 20-s chunks: ~80% occupancy.
    int live_streams = 600;
    /** Sim time to steady occupancy: events per slice stop growing
     *  after about a minute. */
    double warmup_seconds = 60.0;
    int rounds = 2; //!< Set-up is long here; two rounds keep runs short.
    size_t window_ops = 20;
};

RunResult runUploadLadder(const RunArgs &args,
                          const UploadLadderSize &size = {});
RunResult runFleetGlobal(const RunArgs &args,
                         const FleetGlobalSize &size = {});
RunResult runClusterObserved(const RunArgs &args,
                             const ClusterObservedSize &size = {});

/**
 * Per-clip output check of upload_ladder. An upload fails when its
 * integrity check failed or when its output bytes differ from the
 * first transcode of the same clip in this run (that first transcode
 * becomes the clip's reference).
 */
class UploadChecker
{
  public:
    explicit UploadChecker(size_t clips) : refs_(clips) {}

    /** Check one upload of clip @p clip; true when it passes. */
    bool check(size_t clip, const wsva::platform::TranscodeResult &result);

    /** Whether clip @p clip has a reference yet. */
    bool hasReference(size_t clip) const { return !refs_[clip].empty(); }

    /** Digest over every reference, in clip order. */
    uint64_t digest() const;

  private:
    /** Per clip: every chunk's bytes, rung-major. */
    std::vector<std::vector<std::vector<uint8_t>>> refs_;
};

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_H
