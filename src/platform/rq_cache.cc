#include "platform/rq_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace wsva::platform {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t
fnv1a(uint64_t hash, const uint8_t *data, size_t len)
{
    for (size_t i = 0; i < len; ++i) {
        hash ^= data[i];
        hash *= kFnvPrime;
    }
    return hash;
}

uint64_t
fnv1aU64(uint64_t hash, uint64_t value)
{
    for (int b = 0; b < 8; ++b) {
        hash ^= (value >> (b * 8)) & 0xffu;
        hash *= kFnvPrime;
    }
    return hash;
}

/** splitmix64 finalizer: spreads key bits across hash buckets. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
fingerprintClip(const std::vector<wsva::video::Frame> &clip)
{
    uint64_t hash = kFnvOffset;
    hash = fnv1aU64(hash, clip.size());
    for (const auto &frame : clip) {
        hash = fnv1aU64(hash, static_cast<uint64_t>(frame.width()));
        hash = fnv1aU64(hash, static_cast<uint64_t>(frame.height()));
        for (int p = 0; p < 3; ++p) {
            const auto &data = frame.plane(p).data();
            hash = fnv1a(hash, data.data(), data.size());
        }
    }
    return hash;
}

uint64_t
probeSignature(const DynamicOptimizerConfig &cfg)
{
    std::vector<int> qps = cfg.probe_qps;
    std::sort(qps.begin(), qps.end());
    uint64_t hash = kFnvOffset;
    for (const int qp : qps)
        hash = fnv1aU64(hash, static_cast<uint64_t>(qp));
    uint64_t fps_bits = 0;
    static_assert(sizeof(fps_bits) == sizeof(cfg.fps));
    __builtin_memcpy(&fps_bits, &cfg.fps, sizeof(fps_bits));
    hash = fnv1aU64(hash, fps_bits);
    hash = fnv1aU64(hash, cfg.hardware ? 1 : 0);
    return hash;
}

size_t
curveFootprintBytes(const RateQualityCurve &curve)
{
    size_t bytes = sizeof(RateQualityCurve);
    for (const auto &point : curve.points) {
        bytes += sizeof(OperatingPoint);
        bytes += point.chunk.bytes.size();
        bytes += point.chunk.frames.size() *
                 sizeof(point.chunk.frames[0]);
    }
    return bytes;
}

size_t
RqCache::KeyHash::operator()(const RqCacheKey &key) const
{
    uint64_t hash = mix64(key.clip_fingerprint);
    hash = mix64(hash ^ key.probe_signature);
    hash = mix64(hash ^ static_cast<uint64_t>(key.codec));
    return static_cast<size_t>(hash);
}

RqCache::RqCache(RqCacheConfig cfg)
    : capacity_bytes_(cfg.capacity_bytes), metrics_(cfg.metrics),
      tracer_(cfg.tracer)
{
    if (metrics_ != nullptr) {
        hit_counter_ = metrics_->counterHandle("rq_cache.hits");
        miss_counter_ = metrics_->counterHandle("rq_cache.misses");
        eviction_counter_ =
            metrics_->counterHandle("rq_cache.evictions");
        insertion_counter_ =
            metrics_->counterHandle("rq_cache.insertions");
        publishGauges();
    }
}

std::shared_ptr<const RateQualityCurve>
RqCache::get(const RqCacheKey &key)
{
    std::shared_ptr<const RateQualityCurve> curve;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            curve = it->second->curve;
        }
    }
    if (curve) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        hit_counter_.inc();
    } else {
        misses_.fetch_add(1, std::memory_order_relaxed);
        miss_counter_.inc();
    }
    if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->instant(curve ? "rq_cache.hit" : "rq_cache.miss",
                         "rq_cache", "fingerprint",
                         key.clip_fingerprint);
    }
    return curve;
}

void
RqCache::put(const RqCacheKey &key,
             std::shared_ptr<const RateQualityCurve> curve)
{
    WSVA_ASSERT(curve != nullptr, "cannot cache a null curve");
    const size_t bytes = curveFootprintBytes(*curve);
    if (bytes > capacity_bytes_)
        return; // Would evict the whole cache for one entry.

    uint64_t evicted = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            // Refresh in place (same content key, e.g. re-probe).
            bytes_ -= it->second->bytes;
            it->second->curve = std::move(curve);
            it->second->bytes = bytes;
            bytes_ += bytes;
            lru_.splice(lru_.begin(), lru_, it->second);
        } else {
            lru_.push_front(Entry{key, std::move(curve), bytes});
            index_.emplace(key, lru_.begin());
            bytes_ += bytes;
        }
        while (bytes_ > capacity_bytes_ && lru_.size() > 1) {
            const Entry &victim = lru_.back();
            bytes_ -= victim.bytes;
            index_.erase(victim.key);
            lru_.pop_back();
            ++evicted;
        }
    }
    insertions_.fetch_add(1, std::memory_order_relaxed);
    insertion_counter_.inc();
    if (evicted > 0) {
        evictions_.fetch_add(evicted, std::memory_order_relaxed);
        eviction_counter_.inc(evicted);
    }
    if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->instant("rq_cache.insert", "rq_cache", "fingerprint",
                         key.clip_fingerprint, "bytes", bytes);
        if (evicted > 0)
            tracer_->instant("rq_cache.evict", "rq_cache", "count",
                             evicted);
    }
    publishGauges();
}

RqCacheStats
RqCache::stats() const
{
    RqCacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.insertions = insertions_.load(std::memory_order_relaxed);
    return stats;
}

size_t
RqCache::sizeBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

size_t
RqCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

void
RqCache::clear()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lru_.clear();
        index_.clear();
        bytes_ = 0;
    }
    publishGauges();
}

void
RqCache::publishGauges()
{
    if (metrics_ == nullptr)
        return;
    metrics_->setGauge("rq_cache.bytes",
                       static_cast<double>(sizeBytes()));
    metrics_->setGauge("rq_cache.entries",
                       static_cast<double>(entryCount()));
    // Hit rate as a scrapable gauge: /varz and /metrics consumers
    // should not have to divide counters themselves.
    const double hits =
        static_cast<double>(hits_.load(std::memory_order_relaxed));
    const double misses =
        static_cast<double>(misses_.load(std::memory_order_relaxed));
    metrics_->setGauge("rq_cache.hit_rate",
                       hits + misses > 0 ? hits / (hits + misses)
                                         : 0.0);
}

} // namespace wsva::platform
