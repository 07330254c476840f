/**
 * @file
 * Open-addressing hash map from uint64 keys to small values.
 *
 * Built for per-upload bookkeeping on simulator hot paths (one insert
 * per submission, one find+erase per completion, tens of thousands of
 * operations per run): `std::unordered_map` spends most of such a
 * workload on node allocation and pointer chasing. This map keeps
 * slots in one contiguous array with Robin Hood linear probing and
 * shift-back deletion (no tombstones, so probe chains never degrade),
 * and grows by doubling at 50% load.
 *
 * The home slot is a multiplicative (Fibonacci) hash of the key, not
 * the key itself. Simulator step ids are namespaced: the regional
 * traffic generators tag region r's ids as ((r + 1) << 44) + n, and
 * one cluster holds its own steps next to steps rerouted or spilled
 * from other regions, each an independent sequential stream. Under
 * an identity home, step n of every stream lands on the same slot
 * (the low bits agree), so Robin Hood chains grow with the live
 * window: eight interleaved streams of 4,000 live ids measured
 * ~3,000 probes per operation. The multiplicative home spreads each
 * stream and keeps chains at a couple of slots; the price is that
 * consecutive ids no longer sit in adjacent slots.
 *
 * Deliberately minimal: no iterators, no pointer stability across
 * mutations (a pointer from find() is valid only until the next
 * insert/erase/clear), keys are uint64 only. Single-threaded — the
 * simulators mutate it from the tick loop only.
 */

#ifndef WSVA_COMMON_FLAT_MAP_H
#define WSVA_COMMON_FLAT_MAP_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wsva {

/** Open-addressing uint64 -> V map; see file comment for contract. */
template <typename V>
class FlatMap64
{
  public:
    FlatMap64() { resize(kMinCapacity); }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void clear()
    {
        slots_.assign(slots_.size(), Slot{});
        size_ = 0;
    }

    /**
     * The value for @p key, or nullptr. The pointer is invalidated by
     * the next mutating call.
     */
    V *find(uint64_t key)
    {
        const size_t i = probe(key);
        return i != kNotFound ? &slots_[i].val : nullptr;
    }
    const V *find(uint64_t key) const
    {
        const size_t i = probe(key);
        return i != kNotFound ? &slots_[i].val : nullptr;
    }

    /** Insert @p key or overwrite its value. */
    void insertOrAssign(uint64_t key, V val)
    {
        if ((size_ + 1) * 2 > slots_.size())
            grow();
        const size_t at = probe(key);
        if (at != kNotFound) {
            slots_[at].val = std::move(val);
            return;
        }
        // Robin Hood insertion: when the incoming element is further
        // from its home than the resident, the resident moves on.
        // Keeps every cluster sorted by probe distance, which is what
        // lets erase() stop at the first at-home element.
        uint64_t k = key;
        V v = std::move(val);
        size_t i = home(k);
        size_t dist = 0;
        while (slots_[i].full) {
            const size_t d = (i - home(slots_[i].key)) & mask();
            if (d < dist) {
                std::swap(k, slots_[i].key);
                std::swap(v, slots_[i].val);
                dist = d;
            }
            i = (i + 1) & mask();
            ++dist;
        }
        slots_[i].key = k;
        slots_[i].val = std::move(v);
        slots_[i].full = true;
        ++size_;
    }

    /**
     * Longest distance of any element from its home slot: a read-only
     * scan of every slot, for tests that bound probe-chain length.
     */
    size_t maxDisplacement() const
    {
        size_t worst = 0;
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].full)
                worst = std::max(worst,
                                 (i - home(slots_[i].key)) & mask());
        }
        return worst;
    }

    /** @return true when @p key was present and is now removed. */
    bool erase(uint64_t key)
    {
        size_t i = probe(key);
        if (i == kNotFound)
            return false;
        // Shift-back deletion: pull successors back one slot until an
        // empty slot or an element already at its home position. At
        // 50% load with a well-spread home, chains are a slot or two
        // long, so the common erase is O(1).
        size_t j = (i + 1) & mask();
        while (slots_[j].full &&
               ((j - home(slots_[j].key)) & mask()) > 0) {
            slots_[i].key = slots_[j].key;
            slots_[i].val = std::move(slots_[j].val);
            i = j;
            j = (j + 1) & mask();
        }
        slots_[i] = Slot{};
        --size_;
        return true;
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        V val{};
        bool full = false;
    };

    static constexpr size_t kMinCapacity = 64; //!< Power of two.

    size_t mask() const { return slots_.size() - 1; }

    /**
     * Fibonacci hashing: multiply by 2^64 / phi and keep the top
     * log2(capacity) bits, so every key bit (the namespace tag in the
     * high bits included) moves the home. See the file comment.
     */
    size_t home(uint64_t key) const
    {
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                   shift_);
    }

    static constexpr size_t kNotFound = ~static_cast<size_t>(0);

    /**
     * Slot of @p key, or kNotFound. Robin Hood ordering bounds the
     * scan: once the probe distance exceeds the resident element's,
     * the key cannot be further along the chain.
     */
    size_t probe(uint64_t key) const
    {
        size_t i = home(key);
        size_t dist = 0;
        while (slots_[i].full) {
            if (slots_[i].key == key)
                return i;
            if (((i - home(slots_[i].key)) & mask()) < dist)
                return kNotFound;
            i = (i + 1) & mask();
            ++dist;
        }
        return kNotFound;
    }

    /** Empty slot array of @p capacity (a power of two). */
    void resize(size_t capacity)
    {
        slots_.assign(capacity, Slot{});
        shift_ = 64;
        for (size_t c = capacity; c > 1; c >>= 1)
            --shift_;
    }

    void grow()
    {
        std::vector<Slot> old = std::move(slots_);
        resize(old.size() * 2);
        size_ = 0;
        for (Slot &s : old)
            if (s.full)
                insertOrAssign(s.key, std::move(s.val));
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
    unsigned shift_ = 64; //!< 64 - log2(capacity), for home().
};

} // namespace wsva

#endif // WSVA_COMMON_FLAT_MAP_H
