/**
 * @file
 * LRU cache of finished rate-quality curves.
 *
 * Section 4.5: VCUs made per-title dynamic optimization affordable at
 * upload time for the popular bucket — but affordable still means
 * |probe_qps| full encodes plus decodes per clip. Popular uploads are
 * exactly the ones that get re-processed (ladder changes, codec
 * rollouts, re-ingest after edits), so the platform keeps finished
 * curves keyed by clip content: a re-probe of unchanged content is a
 * lookup, not an encode burst.
 *
 * Keys are content-derived (clip fingerprint x codec x probe-set
 * signature), so any byte change in the source or any change to the
 * probed operating points misses cleanly. One lock guards one LRU
 * list under one byte budget; it is held for a hash probe and a list
 * splice, never across a probe encode. Capacity is accounted in bytes
 * (curves carry the finished encodes, which dominate their
 * footprint). Hit/miss/eviction/byte counters are registered in a
 * MetricsRegistry when one is supplied.
 */

#ifndef WSVA_PLATFORM_RQ_CACHE_H
#define WSVA_PLATFORM_RQ_CACHE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "platform/dynamic_optimizer.h"
#include "video/frame.h"

namespace wsva {
class Tracer;
}

namespace wsva::platform {

/** Content-derived cache key. */
struct RqCacheKey
{
    uint64_t clip_fingerprint = 0; //!< Hash of the source pixels.
    wsva::video::codec::CodecType codec =
        wsva::video::codec::CodecType::VP9;
    uint64_t probe_signature = 0; //!< Hash of the probe set (qps/fps/hw).

    bool operator==(const RqCacheKey &other) const = default;
};

/** FNV-1a fingerprint of a clip's dimensions and pixel content. */
uint64_t fingerprintClip(const std::vector<wsva::video::Frame> &clip);

/**
 * Signature of the probed operating points: sorted quantizers, fps,
 * and the hardware flag. Two configs probing the same points hash
 * equal regardless of the order probe_qps was written in.
 */
uint64_t probeSignature(const DynamicOptimizerConfig &cfg);

/** Approximate in-memory footprint of a finished curve, in bytes. */
size_t curveFootprintBytes(const RateQualityCurve &curve);

/** Cache configuration. */
struct RqCacheConfig
{
    /** Byte budget (curves carry full encodes). */
    size_t capacity_bytes = 256ULL << 20;

    /**
     * Optional metrics sink (not owned; must outlive the cache).
     * Registers rq_cache.{hits,misses,evictions,insertions} counters
     * and rq_cache.{bytes,entries} gauges.
     */
    wsva::MetricsRegistry *metrics = nullptr;

    /**
     * Optional span tracer (not owned; must outlive the cache).
     * Records instant events "rq_cache.hit" / "rq_cache.miss" on
     * lookups and "rq_cache.insert" / "rq_cache.evict" on stores,
     * each annotated with the clip fingerprint, so a timeline shows
     * where a probe burst was spent versus skipped.
     */
    wsva::Tracer *tracer = nullptr;
};

/** Counter snapshot (works without a registry). */
struct RqCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;  //!< Entries displaced by the byte budget.
    uint64_t insertions = 0;

    double hitRate() const
    {
        const uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/**
 * Thread-safe LRU of finished rate-quality curves. Curves are
 * held by shared_ptr, so a hit returns without copying and an entry
 * evicted while a caller still uses its curve stays alive for that
 * caller.
 */
class RqCache
{
  public:
    explicit RqCache(RqCacheConfig cfg = {});

    /** The curve for @p key, or nullptr on miss. Promotes to MRU. */
    std::shared_ptr<const RateQualityCurve> get(const RqCacheKey &key);

    /**
     * Insert (or refresh) @p curve under @p key, evicting LRU entries
     * until the byte budget holds. A curve larger than the whole
     * budget is not cached.
     */
    void put(const RqCacheKey &key,
             std::shared_ptr<const RateQualityCurve> curve);

    RqCacheStats stats() const;

    /** Bytes currently held. */
    size_t sizeBytes() const;

    /** Entries currently held. */
    size_t entryCount() const;

    /** Drop every entry (counters are kept). */
    void clear();

    size_t capacityBytes() const { return capacity_bytes_; }

  private:
    struct KeyHash
    {
        size_t operator()(const RqCacheKey &key) const;
    };

    struct Entry
    {
        RqCacheKey key;
        std::shared_ptr<const RateQualityCurve> curve;
        size_t bytes = 0;
    };

    void publishGauges();

    size_t capacity_bytes_;

    mutable std::mutex mutex_;
    std::list<Entry> lru_; //!< MRU at the front.
    std::unordered_map<RqCacheKey, std::list<Entry>::iterator, KeyHash>
        index_;
    size_t bytes_ = 0;

    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> evictions_{0};
    std::atomic<uint64_t> insertions_{0};

    wsva::MetricsRegistry *metrics_ = nullptr;
    wsva::Tracer *tracer_ = nullptr;
    wsva::CounterHandle hit_counter_;
    wsva::CounterHandle miss_counter_;
    wsva::CounterHandle eviction_counter_;
    wsva::CounterHandle insertion_counter_;
};

} // namespace wsva::platform

#endif // WSVA_PLATFORM_RQ_CACHE_H
