/**
 * @file
 * FlatMap64 unit tests. The map backs the SLO monitor's per-upload
 * hot path, so beyond the basics it gets a seeded differential fuzz
 * against std::unordered_map — backward-shift deletion is exactly
 * the kind of code that looks right and corrupts a probe chain on
 * the one wrap-around case nobody hand-writes.
 */

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/flat_map.h"
#include "common/rng.h"

using wsva::FlatMap64;

TEST(FlatMap64, InsertFindErase)
{
    FlatMap64<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(7), nullptr);

    map.insertOrAssign(7, 70);
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 70);
    EXPECT_EQ(map.size(), 1u);

    map.insertOrAssign(7, 71); // Overwrite, not duplicate.
    EXPECT_EQ(*map.find(7), 71);
    EXPECT_EQ(map.size(), 1u);

    EXPECT_TRUE(map.erase(7));
    EXPECT_FALSE(map.erase(7));
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_TRUE(map.empty());
}

TEST(FlatMap64, ZeroKeyIsAnOrdinaryKey)
{
    FlatMap64<int> map;
    map.insertOrAssign(0, 42);
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 42);
    EXPECT_TRUE(map.erase(0));
    EXPECT_EQ(map.find(0), nullptr);
}

TEST(FlatMap64, GrowsPastInitialCapacityAndKeepsEverything)
{
    FlatMap64<uint64_t> map;
    for (uint64_t k = 0; k < 10'000; ++k)
        map.insertOrAssign(k, k * 3);
    EXPECT_EQ(map.size(), 10'000u);
    for (uint64_t k = 0; k < 10'000; ++k) {
        ASSERT_NE(map.find(k), nullptr) << "key " << k;
        EXPECT_EQ(*map.find(k), k * 3);
    }
}

TEST(FlatMap64, ClearKeepsMapUsable)
{
    FlatMap64<int> map;
    for (uint64_t k = 0; k < 100; ++k)
        map.insertOrAssign(k, 1);
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(5), nullptr);
    map.insertOrAssign(5, 2);
    ASSERT_NE(map.find(5), nullptr);
    EXPECT_EQ(*map.find(5), 2);
}

/**
 * Seeded differential fuzz: mixed insert/overwrite/erase/find traffic
 * with a skewed key range (forces collisions, wrap-around chains, and
 * repeated grow cycles), checked against std::unordered_map after
 * every operation batch.
 */
TEST(FlatMap64, DifferentialFuzzAgainstStdUnorderedMap)
{
    wsva::Rng rng(1234);
    FlatMap64<uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> ref;

    for (int batch = 0; batch < 200; ++batch) {
        for (int op = 0; op < 100; ++op) {
            // Small key range so erase/re-insert churn hits the same
            // probe neighborhoods over and over.
            const uint64_t key = rng.nextU64() % 512;
            const uint64_t roll = rng.nextU64() % 10;
            if (roll < 6) {
                const uint64_t val = rng.nextU64();
                map.insertOrAssign(key, val);
                ref[key] = val;
            } else {
                EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
            }
        }
        ASSERT_EQ(map.size(), ref.size()) << "batch " << batch;
        for (const auto &[key, val] : ref) {
            const uint64_t *got = map.find(key);
            ASSERT_NE(got, nullptr) << "batch " << batch
                                    << " key " << key;
            ASSERT_EQ(*got, val) << "batch " << batch << " key "
                                 << key;
        }
        // Spot-check absent keys too.
        for (int probe = 0; probe < 50; ++probe) {
            const uint64_t key = rng.nextU64() % 512;
            ASSERT_EQ(map.find(key) != nullptr, ref.count(key) > 0)
                << "batch " << batch << " key " << key;
        }
    }
}

/**
 * Namespaced id streams, the simulator's real key shape: the regional
 * traffic generators tag region r's step ids as ((r + 1) << 44) + n,
 * and one cluster's SLO map holds its own stream interleaved with
 * streams rerouted or spilled from other regions. Eight interleaved
 * streams with 4,000 ids live and FIFO completion must keep every
 * probe chain short; an identity home put step n of all eight streams
 * on one slot and let displacement grow past 3,000.
 */
TEST(FlatMap64, NamespacedStreamsKeepProbeChainsShort)
{
    constexpr int kStreams = 8;
    constexpr size_t kLive = 4000;
    FlatMap64<uint64_t> map;
    std::deque<uint64_t> live;
    size_t worst = 0;
    for (uint64_t n = 0; n < 3 * kLive; ++n) {
        const uint64_t key =
            (static_cast<uint64_t>(n % kStreams + 1) << 44) |
            (n / kStreams);
        map.insertOrAssign(key, n);
        live.push_back(key);
        if (live.size() > kLive) {
            ASSERT_TRUE(map.erase(live.front()));
            live.pop_front();
        }
        if (n % 1000 == 999)
            worst = std::max(worst, map.maxDisplacement());
    }
    EXPECT_EQ(map.size(), kLive);
    for (uint64_t key : live)
        ASSERT_NE(map.find(key), nullptr) << key;
    EXPECT_LE(worst, 32u);
}
