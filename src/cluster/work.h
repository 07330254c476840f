/**
 * @file
 * Units of transcoding work as the platform schedules them: chunked
 * steps of an acyclic dependency graph, in SOT or MOT shape
 * (Section 2.1, Figure 2), plus the mapping from a step request to
 * the named resources it needs on a worker (Section 3.3.3).
 */

#ifndef WSVA_CLUSTER_WORK_H
#define WSVA_CLUSTER_WORK_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "cluster/resources.h"
#include "video/codec/codec.h"
#include "video/scaler.h"

namespace wsva::cluster {

/** Use-case pools (Section 3.3.3). */
enum class UseCase : int {
    Upload = 0,
    Live = 1,
};

/** Priority bands within a pool. */
enum class Priority : int {
    Critical = 0,
    Normal = 1,
    Batch = 2,
};

/**
 * The output rungs of a step, as a 2-byte id into a process-wide
 * intern table. Each distinct ladder is stored once; a step copies
 * only the id, so TranscodeStep stays trivially copyable and every
 * queue, batch and arrival vector moves it with memcpy. Reads need no
 * lock: an entry never moves or changes once its id is handed out.
 * Interning is thread-safe. The MOT ladders and the single-rung
 * ladders of the standard rungs are interned when the table is built,
 * so forInput() and single() on a standard rung take no lock either.
 */
class OutputLadder
{
  public:
    using Resolution = wsva::video::Resolution;

    /** Rungs one ladder can hold (the standard ladder has 9). */
    static constexpr size_t kMaxRungs = 16;

    /** The empty ladder. */
    OutputLadder() = default;

    /** The MOT ladder for @p input: outputsForInput(input). */
    static OutputLadder forInput(Resolution input);

    /** The one-rung ladder {@p rung}. */
    static OutputLadder single(Resolution rung);

    size_t size() const;
    const Resolution *begin() const;
    const Resolution *end() const { return begin() + size(); }
    const Resolution &front() const { return *begin(); }

    /** Equal rungs, equal ids: comparing ladders compares the ids. */
    bool operator==(const OutputLadder &other) const = default;

  private:
    explicit OutputLadder(uint16_t id) : id_(id) {}

    uint16_t id_ = 0; //!< 0 is the empty ladder.
};

/** One schedulable transcoding step (a chunk of one video). */
struct TranscodeStep
{
    uint64_t id = 0;
    uint64_t video_id = 0;
    int chunk_index = 0;

    wsva::video::Resolution input{1920, 1080};
    OutputLadder outputs; //!< >1 rung => MOT.
    wsva::video::codec::CodecType codec =
        wsva::video::codec::CodecType::VP9;
    double fps = 30.0;
    int frames = 150; //!< Chunk length (e.g. 5 s at 30 FPS).
    bool two_pass = true;

    UseCase use_case = UseCase::Upload;
    Priority priority = Priority::Normal;

    /**
     * Absolute completion deadline on the simulation clock (live
     * segments must be delivered before the viewer's buffer runs
     * dry). +infinity = no deadline; batch/upload work never expires.
     * The dispatch queue orders deadline-carrying steps EDF ahead of
     * the FIFO lane, and the shedding policy compares projected slack
     * (deadline - now - service) against its guard.
     */
    double deadline_time = std::numeric_limits<double>::infinity();

    /**
     * Region the upload originated in (-1 = untagged / single-cluster
     * use). The global router prefers placing a step in its origin
     * region (locality) and counts a placement elsewhere as a reroute.
     * Purely routing metadata; the cluster sim ignores it.
     */
    int origin_region = -1;

    /** Does this step carry a live deadline? */
    bool hasDeadline() const { return std::isfinite(deadline_time); }

    /** Multiple-output transcode? */
    bool isMot() const { return outputs.size() > 1; }

    /** Total output pixels (the Mpix/s accounting unit). */
    double outputPixels() const;

    /** Input pixels decoded. */
    double inputPixels() const;

    /** Chunk duration in video seconds. */
    double durationSeconds() const { return frames / fps; }
};

// Steps are copied through arrival vectors, queue lanes and worker
// batches; keep that a memcpy and keep the step small.
static_assert(std::is_trivially_copyable_v<TranscodeStep>);
static_assert(sizeof(TranscodeStep) <= 104);

/** Build the standard MOT step for an input resolution. */
TranscodeStep makeMotStep(uint64_t id, uint64_t video_id, int chunk_index,
                          wsva::video::Resolution input,
                          wsva::video::codec::CodecType codec);

/** Build one SOT step (single output rung). */
TranscodeStep makeSotStep(uint64_t id, uint64_t video_id, int chunk_index,
                          wsva::video::Resolution input,
                          wsva::video::Resolution output,
                          wsva::video::codec::CodecType codec);

/**
 * Policy knobs for the request -> resources mapping. The mapping
 * "admits different resource costs for dynamic tuning" (Section
 * 3.3.3); these knobs replay the paper's post-launch changes.
 */
struct ResourceMappingPolicy
{
    /** Shift this fraction of decode work to host CPU (Fig. 9c). */
    double software_decode_fraction = 0.0;

    /**
     * Effective encoder-core pixel rate (pixels/s) at production
     * upload quality settings, single pass. The 2160p60 peak is
     * ~500 Mpix/s per core (Section 3.3.1), but offline-quality
     * tools run the core at ~103 Mpix/s; with the 1.35x two-pass
     * overhead this yields ~76 Mpix/s per core = ~765 Mpix/s per
     * VCU, matching Table 1's 20xVCU VP9 throughput.
     */
    double encoder_core_pixel_rate = 103e6;

    /**
     * Effective decoder-core pixel rate (pixels/s) including
     * container handling. With 3 decode cores against 10 encode
     * cores this makes full-ladder SOT workloads decode-bound (each
     * rung re-decodes the input), reproducing the paper's MOT-vs-SOT
     * gap and the ~98% production decoder utilization that motivated
     * the software-decode offload of Figure 9c.
     */
    double decoder_core_pixel_rate = 0.75e9;

    /**
     * Speed-up factor the step is sized for (>= 1 = faster than real
     * time for batch work). Automatically clamped per step so no
     * request exceeds a single VCU in any dimension.
     */
    double allocation_speedup = 2.0;
};

/**
 * The speedup a step actually gets: the policy's allocation speedup
 * clamped so that the resulting request fits a single VCU's decode
 * and encode capacity with headroom.
 */
double effectiveSpeedup(const TranscodeStep &step,
                        const ResourceMappingPolicy &policy);

/** Resource need of a step on a VCU worker under @p policy. */
ResourceVector stepResourceNeed(const TranscodeStep &step,
                                const ResourceMappingPolicy &policy);

/** A step's resource need and service seconds, both sized from one
 *  effectiveSpeedup() (the dispatch path needs the pair). */
struct StepSizing
{
    ResourceVector need;
    double service_seconds = 0.0;
};
StepSizing sizeStep(const TranscodeStep &step,
                    const ResourceMappingPolicy &policy);

/** Wall-clock service seconds of a step given its allocation. */
double stepServiceSeconds(const TranscodeStep &step,
                          const ResourceMappingPolicy &policy);

/** Device-DRAM footprint of a step in bytes (Appendix A.4). */
uint64_t stepDramFootprint(const TranscodeStep &step);

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_WORK_H
