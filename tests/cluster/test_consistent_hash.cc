#include "cluster/consistent_hash.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cluster/cluster.h"
#include "workload/traffic.h"

namespace wsva::cluster {
namespace {

std::vector<int>
ids(int n)
{
    std::vector<int> v;
    for (int i = 0; i < n; ++i)
        v.push_back(i);
    return v;
}

TEST(ConsistentHash, AffinitySetIsStable)
{
    ConsistentHashRing ring(ids(20));
    const auto a = ring.affinitySet(42, 3);
    const auto b = ring.affinitySet(42, 3);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 3u);
}

TEST(ConsistentHash, SetsAreDistinctWorkers)
{
    ConsistentHashRing ring(ids(20));
    for (uint64_t key = 0; key < 200; ++key) {
        const auto set = ring.affinitySet(key, 5);
        std::set<int> unique(set.begin(), set.end());
        ASSERT_EQ(unique.size(), 5u) << "key " << key;
    }
}

TEST(ConsistentHash, CountClampedToWorkers)
{
    ConsistentHashRing ring(ids(3));
    EXPECT_EQ(ring.affinitySet(7, 10).size(), 3u);
}

TEST(ConsistentHash, LoadSpreadsAcrossWorkers)
{
    ConsistentHashRing ring(ids(20));
    std::map<int, int> hits;
    for (uint64_t key = 0; key < 4000; ++key)
        ++hits[ring.affinitySet(key, 1)[0]];
    // Every worker should own some keys; none should dominate.
    EXPECT_EQ(hits.size(), 20u);
    for (const auto &[id, count] : hits) {
        EXPECT_GT(count, 40) << id;
        EXPECT_LT(count, 600) << id;
    }
}

TEST(ConsistentHash, RemovalOnlyMovesAffectedKeys)
{
    ConsistentHashRing ring(ids(20));
    std::map<uint64_t, int> before;
    for (uint64_t key = 0; key < 1000; ++key)
        before[key] = ring.affinitySet(key, 1)[0];
    ring.removeWorker(7);
    int moved = 0;
    for (uint64_t key = 0; key < 1000; ++key) {
        const int now = ring.affinitySet(key, 1)[0];
        EXPECT_NE(now, 7);
        if (now != before[key]) {
            ++moved;
            EXPECT_EQ(before[key], 7) << "key " << key
                                      << " moved unnecessarily";
        }
    }
    EXPECT_GT(moved, 0);
}

TEST(ConsistentHash, ReAddRestoresOwnership)
{
    ConsistentHashRing ring(ids(10));
    std::map<uint64_t, int> before;
    for (uint64_t key = 0; key < 500; ++key)
        before[key] = ring.affinitySet(key, 1)[0];
    ring.removeWorker(3);
    ring.addWorker(3);
    for (uint64_t key = 0; key < 500; ++key)
        ASSERT_EQ(ring.affinitySet(key, 1)[0], before[key]);
}

TEST(ConsistentHash, DuplicateAddDoesNotInflateWorkerCount)
{
    // addWorker of an id already on the ring used to bump the worker
    // count without adding distinct points, so affinitySet(key, n)
    // with n > the real worker count could never collect enough
    // distinct ids and spun forever.
    ConsistentHashRing ring(ids(3));
    ring.addWorker(1);
    ring.addWorker(1);
    EXPECT_EQ(ring.workerCount(), 3u);
    const auto set = ring.affinitySet(42, 10);
    EXPECT_EQ(set.size(), 3u);
    std::set<int> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), 3u);
}

TEST(ConsistentHash, DuplicateIdsInConstructorAreDeduped)
{
    ConsistentHashRing ring({0, 1, 1, 2, 2, 2});
    EXPECT_EQ(ring.workerCount(), 3u);
    EXPECT_EQ(ring.affinitySet(7, 10).size(), 3u);
}

TEST(ConsistentHash, RepeatedRemoveIsIdempotent)
{
    ConsistentHashRing ring(ids(3));
    ring.removeWorker(1);
    ring.removeWorker(1);
    ring.removeWorker(99); // Never present.
    EXPECT_EQ(ring.workerCount(), 2u);
    EXPECT_EQ(ring.affinitySet(7, 5).size(), 2u);
}

TEST(ConsistentHash, ChurnKeepsLookupsDeterministic)
{
    // Quarantine churn regression: remove/re-add cycles must leave
    // the ring byte-identical to its initial state — with a
    // position-keyed map, a point-position collision would make
    // ownership depend on insertion order, so churn could silently
    // permute lookups. The pair-keyed ring is a pure function of the
    // id set; 1k cycles must not move a single key.
    ConsistentHashRing ring(ids(32));
    std::map<uint64_t, std::vector<int>> before;
    for (uint64_t key = 0; key < 256; ++key)
        before[key] = ring.affinitySet(key, 3);

    for (int cycle = 0; cycle < 1000; ++cycle) {
        const int victim = cycle % 32;
        ring.removeWorker(victim);
        // While removed, nothing may route to the victim: a stale
        // virtual point satisfying lookups is exactly the bug a
        // quarantined region black-holing traffic would ride on.
        for (uint64_t key = 0; key < 64; ++key) {
            for (int id : ring.affinitySet(key, 3))
                ASSERT_NE(id, victim) << "cycle " << cycle;
        }
        ring.addWorker(victim);
    }

    EXPECT_EQ(ring.workerCount(), 32u);
    for (uint64_t key = 0; key < 256; ++key)
        ASSERT_EQ(ring.affinitySet(key, 3), before[key]) << key;
}

TEST(ConsistentHash, PrimaryIsTheFirstAffinityMemberAcrossChurn)
{
    // The router asks for the primary on its quarantine fallback
    // without building an affinity vector; the two must agree on
    // every ring the churn produces, wrap-around keys included.
    ConsistentHashRing ring(ids(8), 64);
    const auto check = [&ring](int cycle) {
        for (uint64_t key = 0; key < 512; ++key) {
            const uint64_t k = key * 0x9e3779b97f4a7c15ULL;
            ASSERT_EQ(ring.primary(k), ring.affinitySet(k, 1).front())
                << "cycle " << cycle << " key " << k;
        }
    };
    check(-1);
    for (int cycle = 0; cycle < 40; ++cycle) {
        ring.removeWorker(cycle % 8);
        if (cycle % 3 == 0)
            ring.removeWorker((cycle + 5) % 8);
        check(cycle);
        ring.addWorker(cycle % 8);
        check(cycle);
        if (cycle % 3 == 0)
            ring.addWorker((cycle + 5) % 8);
    }
    EXPECT_EQ(ring.workerCount(), 8u);
}

TEST(ConsistentHash, ChurnOrderIndependence)
{
    // The same id set reached through different add/remove histories
    // must produce the same ring. Build one ring directly and one
    // through heavy interleaved churn; every lookup must agree.
    ConsistentHashRing direct(ids(16));
    ConsistentHashRing churned(ids(24));
    for (int id = 16; id < 24; ++id)
        churned.removeWorker(id);
    for (int cycle = 0; cycle < 50; ++cycle) {
        for (int id = 15; id >= 0; --id)
            churned.removeWorker(id);
        for (int id = 0; id < 16; ++id)
            churned.addWorker((id * 7) % 16); // Permuted re-add order.
    }
    EXPECT_EQ(direct.workerCount(), churned.workerCount());
    for (uint64_t key = 0; key < 512; ++key)
        ASSERT_EQ(direct.affinitySet(key, 4), churned.affinitySet(key, 4))
            << key;
}

TEST(ConsistentHash, ClusterBlastRadiusShrinks)
{
    // The paper's suggested enhancement: with affinity placement a
    // long video touches far fewer VCUs.
    auto run_with = [](bool hashing) {
        ClusterConfig cfg;
        cfg.hosts = 2;
        cfg.vcus_per_host = 10;
        cfg.seed = 3;
        cfg.use_consistent_hashing = hashing;
        cfg.affinity_set_size = 3;
        ClusterSim sim(cfg);
        // One long video: many chunks of the same video id.
        for (int c = 0; c < 120; ++c) {
            sim.submit(makeMotStep(static_cast<uint64_t>(c), 1, c,
                                   {1920, 1080},
                                   wsva::video::codec::CodecType::VP9));
        }
        sim.run(600.0, 1.0);
        return sim.blastRadius().vcusTouching(1);
    };
    const size_t spread = run_with(false);
    const size_t hashed = run_with(true);
    EXPECT_LE(hashed, 3u);
    EXPECT_LT(hashed, spread);
}

} // namespace
} // namespace wsva::cluster
