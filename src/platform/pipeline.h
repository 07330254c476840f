/**
 * @file
 * Transcoding pipelines (Figure 2): chunking into closed GOPs,
 * single-output (SOT) and multiple-output (MOT) transcoding over the
 * real codec, chunk assembly, and output integrity checks.
 */

#ifndef WSVA_PLATFORM_PIPELINE_H
#define WSVA_PLATFORM_PIPELINE_H

#include <cstddef>
#include <string>
#include <vector>

#include "video/codec/codec.h"
#include "video/codec/encoder.h"
#include "video/scaler.h"

namespace wsva {
class MetricsRegistry;
class Tracer;
}

namespace wsva::platform {

using wsva::video::Frame;
using wsva::video::Resolution;
using wsva::video::codec::CodecType;
using wsva::video::codec::EncodedChunk;
using wsva::video::codec::EncoderConfig;

/** Split a clip into fixed-size chunks (closed GOPs). */
std::vector<std::vector<Frame>> chunkFrames(const std::vector<Frame> &clip,
                                            int chunk_frames);

/** One encoded output variant (a resolution+codec rung). */
struct OutputVariant
{
    Resolution resolution;
    CodecType codec;
    std::vector<EncodedChunk> chunks;

    /** Total encoded bytes across chunks. */
    size_t totalBytes() const;

    /** Bitrate over the whole stream. */
    double bitrateBps() const;
};

/** Result of transcoding one source clip. */
struct TranscodeResult
{
    std::vector<OutputVariant> variants;
    bool integrity_ok = true;
    std::string integrity_error;
};

/** Encoder template: fields besides size/codec are applied as-is. */
struct PipelineConfig
{
    EncoderConfig encoder;  //!< width/height/codec overwritten per rung.
    int chunk_frames = 30;  //!< Chunk length in frames.

    /**
     * Threads for the first-pass, chunk x rung encode and verify
     * fan-outs, the caller included: 0 = one per hardware thread,
     * 1 = fully serial (no pool). Chunks are closed GOPs and rungs
     * are independent, so every schedule produces bit-identical
     * output — results are assembled in chunk order regardless of
     * completion order. The fan-outs run on the process-wide
     * ThreadPool::shared() pool, created lazily and reused across
     * transcode calls, so back-to-back short clips do not pay thread
     * creation/join per invocation.
     */
    int num_threads = 0;

    /**
     * Optional metrics sink (not owned; must outlive the call). When
     * set, transcodes record per-chunk encode wall time into the
     * "pipeline.chunk_encode_ms" histogram, per-rung histograms
     * "pipeline.rung<N>.encode_ms", first-pass analysis timings, and
     * job/chunk/rung counters. The registry is thread-safe, so the
     * pool fan-out records concurrently.
     */
    wsva::MetricsRegistry *metrics = nullptr;

    /**
     * Optional span tracer (not owned; must outlive the call). When
     * set and enabled, a transcode records a "transcode" root span
     * with child spans per first-pass analysis, per chunk x rung
     * encode job (parented correctly across the pool fan-out), and
     * per-variant integrity verification. Null or disabled costs one
     * predictable branch per would-be span.
     */
    wsva::Tracer *tracer = nullptr;
};

/**
 * Single-output transcoding: decode -> scale -> encode, one variant
 * (Figure 2a). The input is raw frames here (the upload decode is
 * the caller's concern in the examples; chunking still applies).
 */
TranscodeResult transcodeSot(const std::vector<Frame> &source,
                             Resolution output, CodecType codec,
                             const PipelineConfig &cfg);

/**
 * Multiple-output transcoding: decode once, scale to every rung at
 * or below the input, encode all variants (Figure 2b). First-pass
 * statistics are shared across rungs, as the paper notes MOT enables
 * "efficient sharing of control parameters obtained by analysis of
 * the source".
 */
TranscodeResult transcodeMot(const std::vector<Frame> &source,
                             const std::vector<Resolution> &outputs,
                             CodecType codec, const PipelineConfig &cfg);

/**
 * Reassemble a variant into displayed frames, verifying the
 * high-level integrity checks (chunk decodability, total length
 * matches the input; Section 4.4). Returns empty on failure.
 */
std::vector<Frame> assembleVariant(const OutputVariant &variant,
                                   size_t expected_frames,
                                   std::string *error = nullptr);

} // namespace wsva::platform

#endif // WSVA_PLATFORM_PIPELINE_H
