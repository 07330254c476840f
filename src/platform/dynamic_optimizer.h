/**
 * @file
 * Per-title dynamic optimization (Section 2.1: "advanced encoding
 * systems may do multiple complete passes ... additional analysis
 * (e.g., rate quality curves for individual videos at multiple
 * operating points) to produce better quality/compression trade-offs
 * at additional computational cost").
 *
 * The optimizer encodes a clip at several quantizers, builds its
 * operational rate-quality curve, and picks the cheapest operating
 * point meeting a quality target (or the best quality under a rate
 * cap). This is the "extra processing" the popularity policy spends
 * on the most-watched bucket — exactly the compute that only became
 * affordable at upload time with VCUs (Section 4.5).
 */

#ifndef WSVA_PLATFORM_DYNAMIC_OPTIMIZER_H
#define WSVA_PLATFORM_DYNAMIC_OPTIMIZER_H

#include <memory>
#include <vector>

#include "video/codec/codec.h"
#include "video/frame.h"

namespace wsva {
class MetricsRegistry;
class Tracer;
}

namespace wsva::platform {

class RqCache;

/** One probed operating point. */
struct OperatingPoint
{
    int qp = 0;
    double bitrate_bps = 0.0;
    double psnr_db = 0.0;
    wsva::video::codec::EncodedChunk chunk; //!< The actual encode.
};

/** The per-title rate-quality curve. */
struct RateQualityCurve
{
    std::vector<OperatingPoint> points; //!< Sorted by ascending qp.

    /**
     * Cheapest point with psnr >= target; falls back to the highest-
     * quality point when the target is unreachable.
     */
    const OperatingPoint &cheapestAtQuality(double min_psnr_db) const;

    /**
     * Best-quality point with bitrate <= cap; falls back to the
     * cheapest point when even that exceeds the cap.
     */
    const OperatingPoint &bestUnderRate(double max_bitrate_bps) const;
};

/** Optimizer configuration. */
struct DynamicOptimizerConfig
{
    wsva::video::codec::CodecType codec =
        wsva::video::codec::CodecType::VP9;
    bool hardware = true;        //!< VCUs make the probes affordable.
    std::vector<int> probe_qps = {20, 28, 36, 44, 52};
    double fps = 30.0;

    /**
     * Threads for the per-QP probe fan-out, the caller included:
     * 0 = one per hardware thread, 1 = fully serial (no pool).
     * Probes are independent ConstQp encodes landing in pre-assigned
     * slots, so every schedule produces a bit-identical curve.
     */
    int num_threads = 0;

    /**
     * Optional metrics sink (not owned; must outlive the call).
     * Records optimizer.{curves_built,probes} counters and the
     * "optimizer.probe_ms" per-probe wall-time histogram.
     */
    wsva::MetricsRegistry *metrics = nullptr;

    /**
     * Optional rate-quality cache (not owned; must outlive the
     * call). Consulted and populated by rateQualityCurveFor();
     * buildRateQualityCurve() always computes.
     */
    RqCache *cache = nullptr;

    /**
     * Optional span tracer (not owned; must outlive the call).
     * rateQualityCurveFor() records a "rq_curve_for" span annotated
     * with the cache outcome; a build records "build_rq_curve" with
     * one "probe_encode" child per quantizer (parented correctly
     * across the pool fan-out).
     */
    wsva::Tracer *tracer = nullptr;
};

/**
 * Probe the clip at every configured quantizer and return its
 * rate-quality curve (each point carries the finished encode, so
 * selecting a point is free). Probe encodes and their PSNR decodes
 * fan out over cfg.num_threads threads; the result is bit-identical
 * to the serial path.
 */
RateQualityCurve buildRateQualityCurve(
    const std::vector<wsva::video::Frame> &clip,
    const DynamicOptimizerConfig &cfg);

/**
 * Cache-aware entry point: returns the cached curve when cfg.cache
 * holds one for this clip content x codec x probe set, otherwise
 * builds it (parallel fan-out as above) and caches it. Without a
 * cache this is just buildRateQualityCurve behind a shared_ptr.
 */
std::shared_ptr<const RateQualityCurve> rateQualityCurveFor(
    const std::vector<wsva::video::Frame> &clip,
    const DynamicOptimizerConfig &cfg);

} // namespace wsva::platform

#endif // WSVA_PLATFORM_DYNAMIC_OPTIMIZER_H
