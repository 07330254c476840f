#include "platform/dynamic_optimizer.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "platform/rq_cache.h"
#include "video/codec/decoder.h"
#include "video/synth.h"

namespace wsva::platform {
namespace {

std::vector<wsva::video::Frame>
clip()
{
    wsva::video::SynthSpec spec;
    spec.width = 80;
    spec.height = 48;
    spec.frame_count = 8;
    spec.detail = 2;
    spec.objects = 2;
    spec.motion = 2.0;
    spec.seed = 77;
    return generateVideo(spec);
}

DynamicOptimizerConfig
fastCfg()
{
    DynamicOptimizerConfig cfg;
    cfg.probe_qps = {24, 36, 48};
    return cfg;
}

TEST(DynamicOptimizer, CurveIsMonotone)
{
    const auto curve = buildRateQualityCurve(clip(), fastCfg());
    ASSERT_EQ(curve.points.size(), 3u);
    // Ascending qp -> descending bitrate and psnr.
    for (size_t i = 1; i < curve.points.size(); ++i) {
        EXPECT_LT(curve.points[i].bitrate_bps,
                  curve.points[i - 1].bitrate_bps);
        EXPECT_LT(curve.points[i].psnr_db, curve.points[i - 1].psnr_db);
    }
}

TEST(DynamicOptimizer, CheapestAtQualityPicksMinimalRate)
{
    const auto curve = buildRateQualityCurve(clip(), fastCfg());
    // A target between the qp=36 and qp=24 points must pick qp=36's
    // neighborhood, not overspend on qp=24.
    const double target = curve.points[1].psnr_db - 0.1;
    const auto &chosen = curve.cheapestAtQuality(target);
    EXPECT_GE(chosen.psnr_db, target);
    EXPECT_EQ(chosen.qp, curve.points[1].qp);
}

TEST(DynamicOptimizer, UnreachableQualityFallsBackToBest)
{
    const auto curve = buildRateQualityCurve(clip(), fastCfg());
    const auto &chosen = curve.cheapestAtQuality(99.0);
    EXPECT_EQ(chosen.qp, curve.points[0].qp); // Highest quality probe.
}

TEST(DynamicOptimizer, BestUnderRateRespectsCap)
{
    const auto curve = buildRateQualityCurve(clip(), fastCfg());
    const double cap = curve.points[1].bitrate_bps * 1.01;
    const auto &chosen = curve.bestUnderRate(cap);
    EXPECT_LE(chosen.bitrate_bps, cap);
    EXPECT_EQ(chosen.qp, curve.points[1].qp);
}

TEST(DynamicOptimizer, ImpossibleCapFallsBackToCheapest)
{
    const auto curve = buildRateQualityCurve(clip(), fastCfg());
    const auto &chosen = curve.bestUnderRate(1.0);
    EXPECT_EQ(chosen.qp, curve.points.back().qp);
}

// The probe fan-out must be byte-exact with the serial path: probes
// are independent ConstQp encodes landing in pre-assigned slots, so
// no schedule may change a single output byte.
TEST(DynamicOptimizer, ParallelProbesMatchSerial)
{
    const auto frames = clip();
    DynamicOptimizerConfig serial_cfg = fastCfg();
    serial_cfg.num_threads = 1;
    const auto serial = buildRateQualityCurve(frames, serial_cfg);

    DynamicOptimizerConfig pool_cfg = fastCfg();
    pool_cfg.num_threads = 4;
    const auto parallel = buildRateQualityCurve(frames, pool_cfg);

    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (size_t i = 0; i < serial.points.size(); ++i) {
        EXPECT_EQ(serial.points[i].qp, parallel.points[i].qp);
        EXPECT_EQ(serial.points[i].bitrate_bps,
                  parallel.points[i].bitrate_bps);
        EXPECT_EQ(serial.points[i].psnr_db, parallel.points[i].psnr_db);
        EXPECT_EQ(serial.points[i].chunk.bytes,
                  parallel.points[i].chunk.bytes);
    }
}

TEST(DynamicOptimizer, CurveForCachesAndHits)
{
    const auto frames = clip();
    RqCache cache;
    DynamicOptimizerConfig cfg = fastCfg();
    cfg.num_threads = 1;
    cfg.cache = &cache;

    const auto first = rateQualityCurveFor(frames, cfg);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);

    const auto second = rateQualityCurveFor(frames, cfg);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second.get(), first.get()); // Served from the cache.
    EXPECT_EQ(cache.stats().hits, 1u);

    // The cached curve matches a direct build bit-for-bit.
    DynamicOptimizerConfig plain = fastCfg();
    plain.num_threads = 1;
    const auto direct = buildRateQualityCurve(frames, plain);
    ASSERT_EQ(first->points.size(), direct.points.size());
    for (size_t i = 0; i < direct.points.size(); ++i) {
        EXPECT_EQ(first->points[i].chunk.bytes,
                  direct.points[i].chunk.bytes);
    }

    // A different clip misses; a different probe set misses too.
    auto other = clip();
    other[0].y().at(0, 0) ^= 1;
    const auto third = rateQualityCurveFor(other, cfg);
    EXPECT_NE(third.get(), first.get());
    cfg.probe_qps = {28, 40};
    const auto fourth = rateQualityCurveFor(frames, cfg);
    EXPECT_NE(fourth.get(), first.get());
    EXPECT_EQ(fourth->points.size(), 2u);
}

TEST(DynamicOptimizer, MetricsRecordProbes)
{
    wsva::MetricsRegistry registry;
    DynamicOptimizerConfig cfg = fastCfg();
    cfg.num_threads = 1;
    cfg.metrics = &registry;
    buildRateQualityCurve(clip(), cfg);
    EXPECT_EQ(registry.counter("optimizer.curves_built"), 1u);
    EXPECT_EQ(registry.counter("optimizer.probes"), 3u);
    EXPECT_EQ(registry.histogramCount("optimizer.probe_ms"), 3u);
}

TEST(DynamicOptimizer, SelectedPointCarriesDecodableStream)
{
    const auto curve = buildRateQualityCurve(clip(), fastCfg());
    const auto &chosen = curve.cheapestAtQuality(30.0);
    EXPECT_FALSE(chosen.chunk.bytes.empty());
    const auto decoded =
        wsva::video::codec::decodeChunk(chosen.chunk.bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->frames.size(), 8u);
}

} // namespace
} // namespace wsva::platform
