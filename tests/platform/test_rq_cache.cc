#include "platform/rq_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "video/frame.h"

namespace wsva::platform {
namespace {

using wsva::video::Frame;
using wsva::video::codec::CodecType;

/** A fake finished curve whose footprint is ~@p encode_bytes. */
std::shared_ptr<const RateQualityCurve>
fakeCurve(size_t encode_bytes, int qp = 32)
{
    RateQualityCurve curve;
    OperatingPoint point;
    point.qp = qp;
    point.bitrate_bps = 1000.0 * qp;
    point.psnr_db = 40.0;
    point.chunk.bytes.assign(encode_bytes, 0xab);
    curve.points.push_back(std::move(point));
    return std::make_shared<const RateQualityCurve>(std::move(curve));
}

RqCacheKey
keyFor(uint64_t fingerprint)
{
    RqCacheKey key;
    key.clip_fingerprint = fingerprint;
    key.codec = CodecType::VP9;
    key.probe_signature = 7;
    return key;
}

TEST(RqCache, HitReturnsInsertedCurve)
{
    RqCache cache;
    const auto key = keyFor(1);
    EXPECT_EQ(cache.get(key), nullptr);
    const auto curve = fakeCurve(100);
    cache.put(key, curve);
    const auto hit = cache.get(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit.get(), curve.get()); // Same object, no copy.
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST(RqCache, KeyDimensionsAllMiss)
{
    RqCache cache;
    auto key = keyFor(1);
    cache.put(key, fakeCurve(100));
    auto other = key;
    other.clip_fingerprint = 2;
    EXPECT_EQ(cache.get(other), nullptr);
    other = key;
    other.codec = CodecType::H264;
    EXPECT_EQ(cache.get(other), nullptr);
    other = key;
    other.probe_signature = 8;
    EXPECT_EQ(cache.get(other), nullptr);
    EXPECT_NE(cache.get(key), nullptr);
}

TEST(RqCache, EvictsLruUnderByteBudget)
{
    RqCacheConfig cfg;
    cfg.capacity_bytes = 4096;
    RqCache cache(cfg);
    // ~1 KiB each once struct overhead counts: 3 fit, the 4th evicts.
    for (uint64_t i = 0; i < 4; ++i)
        cache.put(keyFor(i), fakeCurve(1024));
    EXPECT_LE(cache.sizeBytes(), cfg.capacity_bytes);
    EXPECT_LT(cache.entryCount(), 4u);
    EXPECT_GT(cache.stats().evictions, 0u);
    // Key 0 was least recently used: gone. The newest entry stays.
    EXPECT_EQ(cache.get(keyFor(0)), nullptr);
    EXPECT_NE(cache.get(keyFor(3)), nullptr);
}

TEST(RqCache, GetPromotesToMru)
{
    RqCacheConfig cfg;
    cfg.capacity_bytes = 4096;
    RqCache cache(cfg);
    cache.put(keyFor(0), fakeCurve(1024));
    cache.put(keyFor(1), fakeCurve(1024));
    cache.put(keyFor(2), fakeCurve(1024));
    EXPECT_NE(cache.get(keyFor(0)), nullptr); // 0 is now MRU.
    cache.put(keyFor(3), fakeCurve(1024));    // Evicts 1, not 0.
    EXPECT_NE(cache.get(keyFor(0)), nullptr);
    EXPECT_EQ(cache.get(keyFor(1)), nullptr);
}

TEST(RqCache, OversizeCurveNotCached)
{
    RqCacheConfig cfg;
    cfg.capacity_bytes = 1024;
    RqCache cache(cfg);
    cache.put(keyFor(1), fakeCurve(4096));
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.get(keyFor(1)), nullptr);
}

TEST(RqCache, CurveUpToTheWholeBudgetIsCached)
{
    // One budget for the whole cache: a curve half its size is kept,
    // and smaller ones fit beside it without evicting anything.
    RqCacheConfig cfg;
    cfg.capacity_bytes = 64 * 1024;
    RqCache cache(cfg);
    cache.put(keyFor(100), fakeCurve(32 * 1024));
    for (uint64_t i = 0; i < 8; ++i)
        cache.put(keyFor(i), fakeCurve(2 * 1024));
    EXPECT_NE(cache.get(keyFor(100)), nullptr);
    EXPECT_EQ(cache.entryCount(), 9u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_LE(cache.sizeBytes(), cfg.capacity_bytes);
}

TEST(RqCache, RefreshSameKeyKeepsOneEntry)
{
    RqCache cache;
    cache.put(keyFor(1), fakeCurve(100, 32));
    cache.put(keyFor(1), fakeCurve(200, 36));
    EXPECT_EQ(cache.entryCount(), 1u);
    const auto hit = cache.get(keyFor(1));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->points[0].qp, 36); // The refreshed curve.
}

TEST(RqCache, ClearDropsEntriesKeepsCounters)
{
    RqCache cache;
    cache.put(keyFor(1), fakeCurve(100));
    EXPECT_NE(cache.get(keyFor(1)), nullptr);
    cache.clear();
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.sizeBytes(), 0u);
    EXPECT_EQ(cache.get(keyFor(1)), nullptr);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(RqCache, RegistersMetricsCounters)
{
    wsva::MetricsRegistry registry;
    RqCacheConfig cfg;
    cfg.metrics = &registry;
    RqCache cache(cfg);
    cache.put(keyFor(1), fakeCurve(100));
    cache.get(keyFor(1));
    cache.get(keyFor(2));
    EXPECT_EQ(registry.counter("rq_cache.hits"), 1u);
    EXPECT_EQ(registry.counter("rq_cache.misses"), 1u);
    EXPECT_EQ(registry.counter("rq_cache.insertions"), 1u);
    EXPECT_GT(registry.gauge("rq_cache.bytes"), 0.0);
    EXPECT_EQ(registry.gauge("rq_cache.entries"), 1.0);
}

// Many threads get/put overlapping keys through a small, evicting
// cache; run under the tsan preset. Consistency: every returned hit
// must be a fully formed curve and the budget must hold at the end.
TEST(RqCache, ConcurrentAccessIsSafe)
{
    RqCacheConfig cfg;
    cfg.capacity_bytes = 16 * 1024; // 16 keys x ~2 KiB: evicts.
    RqCache cache(cfg);
    wsva::ThreadPool pool(4);
    pool.parallelFor(256, [&](size_t i) {
        const uint64_t fp = i % 16;
        if (auto hit = cache.get(keyFor(fp))) {
            ASSERT_FALSE(hit->points.empty());
            EXPECT_EQ(hit->points[0].psnr_db, 40.0);
        } else {
            cache.put(keyFor(fp), fakeCurve(2048));
        }
    });
    EXPECT_LE(cache.sizeBytes(), cfg.capacity_bytes);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, 256u);
    EXPECT_GT(stats.insertions, 0u);
}

TEST(RqCacheFingerprint, SensitiveToPixelsAndShape)
{
    std::vector<Frame> clip_a(2, Frame(16, 8, 100));
    std::vector<Frame> clip_b(2, Frame(16, 8, 100));
    EXPECT_EQ(fingerprintClip(clip_a), fingerprintClip(clip_b));
    clip_b[1].y().at(3, 3) ^= 1; // One pixel flips the fingerprint.
    EXPECT_NE(fingerprintClip(clip_a), fingerprintClip(clip_b));
    std::vector<Frame> clip_c(2, Frame(8, 16, 100));
    EXPECT_NE(fingerprintClip(clip_a), fingerprintClip(clip_c));
    std::vector<Frame> clip_d(3, Frame(16, 8, 100));
    EXPECT_NE(fingerprintClip(clip_a), fingerprintClip(clip_d));
}

TEST(RqCacheFingerprint, ProbeSignatureIsOrderInsensitive)
{
    DynamicOptimizerConfig a;
    a.probe_qps = {20, 36, 52};
    DynamicOptimizerConfig b;
    b.probe_qps = {52, 20, 36};
    EXPECT_EQ(probeSignature(a), probeSignature(b));
    b.probe_qps = {20, 36, 44};
    EXPECT_NE(probeSignature(a), probeSignature(b));
    b = a;
    b.fps = 60.0;
    EXPECT_NE(probeSignature(a), probeSignature(b));
    b = a;
    b.hardware = !a.hardware;
    EXPECT_NE(probeSignature(a), probeSignature(b));
}

} // namespace
} // namespace wsva::platform
