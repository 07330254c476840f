#include "platform/pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "video/codec/decoder.h"
#include "video/codec/rate_control.h"

namespace wsva::platform {

using wsva::video::codec::decodeChunk;
using wsva::video::codec::encodeSequenceWithStats;
using wsva::video::codec::FirstPassStats;
using wsva::video::codec::RcMode;
using wsva::video::codec::runFirstPass;
using wsva::video::scaleFrame;

std::vector<std::vector<Frame>>
chunkFrames(const std::vector<Frame> &clip, int chunk_frames)
{
    WSVA_ASSERT(chunk_frames > 0, "chunk length must be positive");
    std::vector<std::vector<Frame>> chunks;
    for (size_t start = 0; start < clip.size();
         start += static_cast<size_t>(chunk_frames)) {
        const size_t end = std::min(
            clip.size(), start + static_cast<size_t>(chunk_frames));
        chunks.emplace_back(clip.begin() + static_cast<long>(start),
                            clip.begin() + static_cast<long>(end));
    }
    return chunks;
}

size_t
OutputVariant::totalBytes() const
{
    size_t total = 0;
    for (const auto &c : chunks)
        total += c.bytes.size();
    return total;
}

double
OutputVariant::bitrateBps() const
{
    int shown = 0;
    double fps = 30.0;
    for (const auto &c : chunks) {
        shown += c.shownFrameCount();
        fps = c.fps;
    }
    if (shown == 0)
        return 0.0;
    return static_cast<double>(totalBytes()) * 8.0 * fps / shown;
}

namespace {

/**
 * Per-rung bitrate scaling exponent: a rung with p times the pixels
 * of the top rung gets p^exponent times its bitrate (ABR-ladder
 * practice; ~0.75 tracks how perceptual bitrate demand grows
 * sublinearly with resolution).
 */
constexpr double kLadderBitrateExponent = 0.75;

/** Scale one source chunk to a rung and encode it. */
EncodedChunk
encodeChunkJob(const std::vector<Frame> &chunk, Resolution resolution,
               CodecType codec, const PipelineConfig &cfg,
               const std::vector<FirstPassStats> &chunk_stats,
               size_t chunk_idx, double bitrate_scale)
{
    // Coarse pipeline phase; the codec kernels (motion search, DCT,
    // interpolation) nest under it at runtime.
    static const int kPhase = prof::phaseId("pipeline/encode_chunk");
    prof::ProfScope prof_scope(kPhase);
    std::vector<Frame> scaled;
    scaled.reserve(chunk.size());
    for (const auto &f : chunk)
        scaled.push_back(
            scaleFrame(f, resolution.width, resolution.height));

    EncoderConfig ecfg = cfg.encoder;
    ecfg.codec = codec;
    ecfg.width = resolution.width;
    ecfg.height = resolution.height;
    ecfg.target_bitrate_bps *= bitrate_scale;
    ecfg.gop_length =
        std::max(ecfg.gop_length, static_cast<int>(scaled.size()));

    FirstPassStats stats;
    if (ecfg.rc_mode != RcMode::ConstQp) {
        // MOT shares the source-analysis statistics across rungs;
        // the complexity signal is resolution-independent enough.
        WSVA_ASSERT(chunk_idx < chunk_stats.size(),
                    "missing first-pass stats for chunk %zu", chunk_idx);
        stats = chunk_stats[chunk_idx];
    }
    return encodeSequenceWithStats(ecfg, scaled, std::move(stats));
}

} // namespace

TranscodeResult
transcodeSot(const std::vector<Frame> &source, Resolution output,
             CodecType codec, const PipelineConfig &cfg)
{
    return transcodeMot(source, {output}, codec, cfg);
}

TranscodeResult
transcodeMot(const std::vector<Frame> &source,
             const std::vector<Resolution> &outputs, CodecType codec,
             const PipelineConfig &cfg)
{
    WSVA_ASSERT(!source.empty(), "empty source clip");
    WSVA_ASSERT(!outputs.empty(), "no output variants requested");

    const auto chunks = chunkFrames(source, cfg.chunk_frames);
    const size_t jobs = chunks.size() * outputs.size();

    // Root span of the whole upload transcode; the fan-out jobs below
    // parent to it via the thread-pool context propagation.
    wsva::Span transcode_span(cfg.tracer, "transcode", "pipeline");
    transcode_span.arg("chunks", chunks.size());
    transcode_span.arg("rungs", outputs.size());

    if (cfg.metrics != nullptr) {
        cfg.metrics->inc("pipeline.transcodes");
        cfg.metrics->inc("pipeline.chunks", chunks.size());
        cfg.metrics->inc("pipeline.rungs", outputs.size());
        cfg.metrics->inc("pipeline.encode_jobs", jobs);
    }

    // One analysis pass over the source per chunk, shared by every
    // rung of the ladder (compute stats once, then fan out).
    std::vector<FirstPassStats> chunk_stats;
    if (cfg.encoder.rc_mode != RcMode::ConstQp) {
        chunk_stats.resize(chunks.size());
        wsva::parallelFor(cfg.num_threads, chunks.size(), [&](size_t i) {
            wsva::Span span(cfg.tracer, "first_pass", "pipeline");
            span.arg("chunk", i);
            const uint64_t t0 = prof::nowNs();
            chunk_stats[i] = runFirstPass(chunks[i]);
            if (cfg.metrics != nullptr) {
                cfg.metrics->observe("pipeline.first_pass_ms",
                                     (prof::nowNs() - t0) * 1e-6, 0.0,
                                     10e3, 100);
            }
        });
    }

    // Bitrate ladder: lower rungs get sublinearly scaled targets.
    double top_pixels = 0.0;
    for (const auto &res : outputs) {
        top_pixels = std::max(
            top_pixels, static_cast<double>(res.width) * res.height);
    }

    TranscodeResult result;
    result.variants.resize(outputs.size());
    for (size_t r = 0; r < outputs.size(); ++r) {
        result.variants[r].resolution = outputs[r];
        result.variants[r].codec = codec;
        result.variants[r].chunks.resize(chunks.size());
    }

    // Rung histogram names are fixed up front so the hot job lambda
    // never formats strings.
    std::vector<std::string> rung_metric;
    if (cfg.metrics != nullptr) {
        for (size_t r = 0; r < outputs.size(); ++r)
            rung_metric.push_back(
                wsva::strformat("pipeline.rung%zu.encode_ms", r));
    }

    // Chunks are closed GOPs and rungs are independent, so the
    // chunk x rung encode jobs are embarrassingly parallel. Every
    // result lands in its pre-assigned slot, so scheduling order
    // never affects the output bytes.
    wsva::parallelFor(cfg.num_threads, jobs, [&](size_t j) {
        const size_t r = j / chunks.size();
        const size_t i = j % chunks.size();
        wsva::Span span(cfg.tracer, "encode_chunk", "pipeline");
        span.arg("chunk", i);
        span.arg("rung", r);
        const Resolution &res = outputs[r];
        const double rel =
            static_cast<double>(res.width) * res.height / top_pixels;
        const double scale = std::pow(rel, kLadderBitrateExponent);
        const uint64_t t0 = prof::nowNs();
        result.variants[r].chunks[i] = encodeChunkJob(
            chunks[i], res, codec, cfg, chunk_stats, i, scale);
        if (cfg.metrics != nullptr) {
            const double ms = (prof::nowNs() - t0) * 1e-6;
            cfg.metrics->observe("pipeline.chunk_encode_ms", ms, 0.0,
                                 10e3, 100);
            cfg.metrics->observe(rung_metric[r], ms, 0.0, 10e3, 100);
        }
    });

    // Integrity verification (Section 4.4): every variant must decode
    // and match the input length. Variants verify in parallel; the
    // reported failure is the lowest-index one, matching the serial
    // scan order.
    std::vector<std::string> errors(result.variants.size());
    std::vector<char> failed(result.variants.size(), 0);
    wsva::parallelFor(cfg.num_threads, result.variants.size(), [&](size_t v) {
        wsva::Span span(cfg.tracer, "verify_variant", "pipeline");
        span.arg("rung", v);
        std::string error;
        const auto frames =
            assembleVariant(result.variants[v], source.size(), &error);
        if (frames.empty()) {
            failed[v] = 1;
            errors[v] = std::move(error);
        }
    });
    for (size_t v = 0; v < result.variants.size(); ++v) {
        if (failed[v]) {
            result.integrity_ok = false;
            result.integrity_error = errors[v];
            break;
        }
    }
    return result;
}

std::vector<Frame>
assembleVariant(const OutputVariant &variant, size_t expected_frames,
                std::string *error)
{
    std::vector<Frame> assembled;
    for (size_t i = 0; i < variant.chunks.size(); ++i) {
        auto decoded = decodeChunk(variant.chunks[i].bytes);
        if (!decoded.has_value()) {
            if (error)
                *error = wsva::strformat("chunk %zu failed to decode", i);
            return {};
        }
        for (auto &f : decoded->frames)
            assembled.push_back(std::move(f));
    }
    if (assembled.size() != expected_frames) {
        if (error) {
            *error = wsva::strformat(
                "length mismatch: got %zu frames, expected %zu",
                assembled.size(), expected_frames);
        }
        return {};
    }
    return assembled;
}

} // namespace wsva::platform
