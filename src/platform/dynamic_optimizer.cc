#include "platform/dynamic_optimizer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "platform/rq_cache.h"
#include "video/codec/decoder.h"
#include "video/codec/encoder.h"
#include "video/metrics.h"

namespace wsva::platform {

using wsva::video::codec::decodeChunkOrDie;
using wsva::video::codec::EncoderConfig;
using wsva::video::codec::encodeSequence;
using wsva::video::codec::RcMode;

const OperatingPoint &
RateQualityCurve::cheapestAtQuality(double min_psnr_db) const
{
    WSVA_ASSERT(!points.empty(), "empty rate-quality curve");
    const OperatingPoint *best = nullptr;
    for (const auto &p : points) {
        if (p.psnr_db >= min_psnr_db &&
            (best == nullptr || p.bitrate_bps < best->bitrate_bps)) {
            best = &p;
        }
    }
    if (best != nullptr)
        return *best;
    // Unreachable target: return the highest-quality point.
    return *std::max_element(points.begin(), points.end(),
                             [](const auto &a, const auto &b) {
                                 return a.psnr_db < b.psnr_db;
                             });
}

const OperatingPoint &
RateQualityCurve::bestUnderRate(double max_bitrate_bps) const
{
    WSVA_ASSERT(!points.empty(), "empty rate-quality curve");
    const OperatingPoint *best = nullptr;
    for (const auto &p : points) {
        if (p.bitrate_bps <= max_bitrate_bps &&
            (best == nullptr || p.psnr_db > best->psnr_db)) {
            best = &p;
        }
    }
    if (best != nullptr)
        return *best;
    return *std::min_element(points.begin(), points.end(),
                             [](const auto &a, const auto &b) {
                                 return a.bitrate_bps < b.bitrate_bps;
                             });
}

RateQualityCurve
buildRateQualityCurve(const std::vector<wsva::video::Frame> &clip,
                      const DynamicOptimizerConfig &cfg)
{
    WSVA_ASSERT(!clip.empty(), "empty clip");
    WSVA_ASSERT(!cfg.probe_qps.empty(), "no probe quantizers");

    std::vector<int> qps = cfg.probe_qps;
    std::sort(qps.begin(), qps.end());

    RateQualityCurve curve;
    curve.points.resize(qps.size());

    wsva::Span build_span(cfg.tracer, "build_rq_curve", "optimizer");
    build_span.arg("probes", qps.size());

    // Each probe is an independent ConstQp encode plus its PSNR
    // decode, landing in a pre-assigned slot of the curve — every
    // schedule yields bit-identical points, so the pool fan-out is
    // byte-exact with the serial loop.
    const auto probe = [&](size_t i) {
        wsva::Span span(cfg.tracer, "probe_encode", "optimizer");
        span.arg("qp", static_cast<uint64_t>(qps[i]));
        const uint64_t t0 = prof::nowNs();
        const int qp = qps[i];
        EncoderConfig ecfg;
        ecfg.codec = cfg.codec;
        ecfg.width = clip[0].width();
        ecfg.height = clip[0].height();
        ecfg.fps = cfg.fps;
        ecfg.rc_mode = RcMode::ConstQp;
        ecfg.base_qp = qp;
        ecfg.gop_length = static_cast<int>(clip.size());
        ecfg.hardware = cfg.hardware;

        OperatingPoint &point = curve.points[i];
        point.qp = qp;
        point.chunk = encodeSequence(ecfg, clip);
        point.bitrate_bps = point.chunk.bitrateBps();
        const auto decoded = decodeChunkOrDie(point.chunk.bytes);
        point.psnr_db = wsva::video::sequencePsnr(clip, decoded.frames);
        if (cfg.metrics != nullptr) {
            cfg.metrics->observe("optimizer.probe_ms",
                                 (prof::nowNs() - t0) * 1e-6, 0.0, 60e3,
                                 100);
        }
    };

    wsva::parallelFor(cfg.num_threads, qps.size(), probe);

    if (cfg.metrics != nullptr) {
        cfg.metrics->inc("optimizer.curves_built");
        cfg.metrics->inc("optimizer.probes", qps.size());
    }
    return curve;
}

std::shared_ptr<const RateQualityCurve>
rateQualityCurveFor(const std::vector<wsva::video::Frame> &clip,
                    const DynamicOptimizerConfig &cfg)
{
    wsva::Span span(cfg.tracer, "rq_curve_for", "optimizer");
    if (cfg.cache == nullptr) {
        return std::make_shared<const RateQualityCurve>(
            buildRateQualityCurve(clip, cfg));
    }
    RqCacheKey key;
    key.clip_fingerprint = fingerprintClip(clip);
    key.codec = cfg.codec;
    key.probe_signature = probeSignature(cfg);
    if (auto cached = cfg.cache->get(key)) {
        span.arg("cache_hit", 1);
        return cached;
    }
    span.arg("cache_hit", 0);
    auto curve = std::make_shared<const RateQualityCurve>(
        buildRateQualityCurve(clip, cfg));
    cfg.cache->put(key, curve);
    return curve;
}

} // namespace wsva::platform
