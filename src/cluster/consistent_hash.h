/**
 * @file
 * Consistent-hash placement for blast-radius reduction.
 *
 * Section 4.4: videos are chunked across hundreds of VCUs, so one
 * silently corrupting VCU touches many videos. "A future enhancement
 * would be to use consistent hashing to reduce the number of VCUs on
 * which a given video is processed." This module implements that
 * enhancement: a hash ring over workers with virtual nodes; each
 * video hashes to a small affinity set of workers, and the scheduler
 * prefers (but is not required) to place the video's chunks there.
 */

#ifndef WSVA_CLUSTER_CONSISTENT_HASH_H
#define WSVA_CLUSTER_CONSISTENT_HASH_H

#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace wsva::cluster {

/** Hash ring mapping 64-bit keys to worker ids. */
class ConsistentHashRing
{
  public:
    /**
     * @param worker_ids Workers on the ring.
     * @param virtual_nodes Ring points per worker (smooths load).
     */
    explicit ConsistentHashRing(const std::vector<int> &worker_ids,
                                int virtual_nodes = 32);

    /**
     * The affinity set for @p key: the first @p count distinct
     * workers clockwise from the key's ring position.
     */
    std::vector<int> affinitySet(uint64_t key, size_t count) const;

    /**
     * The first worker clockwise from @p key's position, i.e.
     * affinitySet(key, 1).front(), without building a vector. The
     * ring must not be empty.
     */
    int primary(uint64_t key) const;

    /** Remove a worker (failed/disabled/quarantined); its keys spill
     *  over. Removing an id not on the ring is a no-op. Removal erases
     *  exactly the worker's own virtual points, so no stale point can
     *  keep satisfying affinity lookups afterwards. */
    void removeWorker(int worker_id);

    /** Add a worker (repair completed). Adding an id already on the
     *  ring is a no-op, so the worker count always matches the number
     *  of distinct ids (affinitySet would otherwise spin forever
     *  asking for more distinct workers than exist). */
    void addWorker(int worker_id);

    size_t workerCount() const { return ids_.size(); }

  private:
    static uint64_t mix(uint64_t value);
    uint64_t pointPosition(int worker_id, int virtual_node) const;
    /** Ring point where @p key's clockwise walk starts (end() means
     *  wrap to begin()). */
    std::set<std::pair<uint64_t, int>>::const_iterator
    firstPointAtOrAfter(uint64_t key) const;

    /**
     * Ring points keyed by (position, worker id). Keying by the pair
     * rather than the bare position makes the ring's contents a pure
     * function of the id set: if two workers ever hashed to the same
     * position, a position-keyed map would let the later insertion
     * clobber the earlier one, so ownership — and every affinitySet
     * crossing that point — would depend on add/remove history. The
     * pair key gives a deterministic total order under arbitrary
     * churn, and lets removeWorker erase exactly its own points in
     * O(virtual_nodes * log n) instead of scanning the whole ring.
     */
    std::set<std::pair<uint64_t, int>> ring_;
    std::set<int> ids_; //!< distinct worker ids on the ring.
    int virtual_nodes_;
};

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_CONSISTENT_HASH_H
