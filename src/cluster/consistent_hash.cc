#include "cluster/consistent_hash.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace wsva::cluster {

uint64_t
ConsistentHashRing::mix(uint64_t value)
{
    // splitmix64 finalizer: uniform ring positions from small ints.
    value += 0x9e3779b97f4a7c15ULL;
    value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
    value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
    return value ^ (value >> 31);
}

uint64_t
ConsistentHashRing::pointPosition(int worker_id, int virtual_node) const
{
    return mix((static_cast<uint64_t>(static_cast<uint32_t>(worker_id))
                << 20) ^ static_cast<uint64_t>(virtual_node));
}

ConsistentHashRing::ConsistentHashRing(const std::vector<int> &worker_ids,
                                       int virtual_nodes)
    : virtual_nodes_(virtual_nodes)
{
    WSVA_ASSERT(virtual_nodes >= 1, "need at least one virtual node");
    for (int id : worker_ids)
        addWorker(id);
}

void
ConsistentHashRing::addWorker(int worker_id)
{
    if (!ids_.insert(worker_id).second)
        return; // Already on the ring; re-adding must not double-count.
    for (int v = 0; v < virtual_nodes_; ++v)
        ring_.insert({pointPosition(worker_id, v), worker_id});
}

void
ConsistentHashRing::removeWorker(int worker_id)
{
    if (ids_.erase(worker_id) == 0)
        return;
    // Erase exactly this worker's virtual points by recomputing their
    // positions — O(virtual_nodes * log n), and structurally incapable
    // of leaving a stale point behind or disturbing other workers'
    // points (a full-ring value scan would also work but costs O(n)
    // per quarantine event at fleet scale).
    for (int v = 0; v < virtual_nodes_; ++v)
        ring_.erase({pointPosition(worker_id, v), worker_id});
}

std::set<std::pair<uint64_t, int>>::const_iterator
ConsistentHashRing::firstPointAtOrAfter(uint64_t key) const
{
    // The worker-id tiebreak in the pair key makes the walk order —
    // and therefore every affinity set — a pure function of
    // (key, id set).
    return ring_.lower_bound({mix(key), std::numeric_limits<int>::min()});
}

int
ConsistentHashRing::primary(uint64_t key) const
{
    WSVA_ASSERT(!ring_.empty(), "primary() on an empty ring");
    const auto it = firstPointAtOrAfter(key);
    return it == ring_.end() ? ring_.begin()->second : it->second;
}

std::vector<int>
ConsistentHashRing::affinitySet(uint64_t key, size_t count) const
{
    std::vector<int> result;
    if (ring_.empty())
        return result;
    count = std::min(count, ids_.size());

    // Walk clockwise from the first point at-or-after the key's
    // position, collecting distinct workers.
    auto it = firstPointAtOrAfter(key);
    while (result.size() < count) {
        if (it == ring_.end())
            it = ring_.begin();
        if (std::find(result.begin(), result.end(), it->second) ==
            result.end()) {
            result.push_back(it->second);
        }
        ++it;
    }
    return result;
}

} // namespace wsva::cluster
