/**
 * @file
 * The branch-and-bound mode decision (video/codec/mode_bound.h): the
 * (cost, rank) tie rule, the exact prunes at an equal bound, a
 * randomized check that pruned evaluation in the encoder's order picks
 * the candidate that exhaustive evaluation in rank order picks, and
 * the kernel call counts of one golden clip, so that losing a prune
 * fails a test and not only a benchmark.
 */

#include "video/codec/mode_bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/profiler.h"
#include "common/rng.h"
#include "video/codec/encoder.h"
#include "workload/vbench.h"

namespace wsva::video::codec {
namespace {

TEST(ModeBound, EqualCostsGoToTheLowerRankWhicheverRunsFirst)
{
    const std::pair<int, int> orders[] = {
        {kRankIntra + 1, kRankInter},
        {kRankInter, kRankIntra + 1},
        {kRankSkip, kRankSplit},
        {kRankSplit, kRankSkip},
    };
    for (const auto &[first, second] : orders) {
        ModeBound bound(2.5);
        const double cost = bound.cost(1000, 20);
        EXPECT_TRUE(bound.offer(cost, first));
        EXPECT_EQ(bound.offer(cost, second), second < first);
        EXPECT_EQ(bound.bestRank(), std::min(first, second));
        EXPECT_EQ(bound.bestCost(), cost);
    }
}

TEST(ModeBound, ALowerCostWinsWhateverItsRank)
{
    ModeBound bound(4.0);
    EXPECT_TRUE(bound.offer(bound.cost(500, 10), kRankIntra));
    EXPECT_TRUE(bound.offer(bound.cost(499, 10), kRankSplit));
    EXPECT_FALSE(bound.offer(bound.cost(500, 10), kRankIntra));
    EXPECT_EQ(bound.bestRank(), kRankSplit);
}

TEST(ModeBound, AnEmptyBoundPrunesNothing)
{
    const ModeBound bound(1.0);
    EXPECT_FALSE(bound.floorLoses(1000, kRankSplit));
    EXPECT_FALSE(bound.partialLoses(uint64_t{1} << 40, 1 << 20, kRankSplit));
}

TEST(ModeBound, AnEqualFloorPrunesOnlyALaterRank)
{
    ModeBound bound(3.0);
    constexpr int kModeBits = 5;
    // Six 1-bit blocks with no distortion: a cost equal to the floor.
    bound.offer(bound.cost(0, kModeBits + kBlocksPerMb), kRankCompound);

    EXPECT_TRUE(bound.floorLoses(kModeBits, kRankSplit));
    EXPECT_FALSE(bound.floorLoses(kModeBits, kRankInter + 1));
    EXPECT_FALSE(bound.floorLoses(kModeBits, kRankIntra));
    EXPECT_TRUE(bound.floorLoses(kModeBits + 1, kRankIntra));
    EXPECT_FALSE(bound.floorLoses(kModeBits - 1, kRankSplit));
}

TEST(ModeBound, AnEqualPartialCostPrunesOnlyALaterRank)
{
    ModeBound bound(7.25);
    bound.offer(bound.cost(700, 30), kRankSkip);

    EXPECT_TRUE(bound.partialLoses(700, 30, kRankInter));
    EXPECT_TRUE(bound.partialLoses(700, 30, kRankSplit));
    EXPECT_FALSE(bound.partialLoses(700, 30, kRankIntra + 3));
    EXPECT_TRUE(bound.partialLoses(701, 30, kRankIntra));
    EXPECT_TRUE(bound.partialLoses(700, 31, kRankIntra));
    EXPECT_FALSE(bound.partialLoses(699, 30, kRankSplit));
}

TEST(ModeBoundDeathTest, RejectsANonPositiveLambda)
{
    EXPECT_DEATH(ModeBound(0.0), "positive");
}

// --- Pruned against exhaustive evaluation ------------------------------

struct BlockDraw
{
    uint64_t dist = 0;
    int bits = 1;
};

/** One candidate: its mode bits and what each 8x8 block adds. */
struct CandidateDraw
{
    int rank = 0;
    int mode_bits = 0;
    std::array<BlockDraw, kBlocksPerMb> blocks{};
};

struct Pick
{
    int rank = -1;
    double cost = 0.0;
};

/** The exhaustive loop the encoder ran before it pruned: every
 *  candidate in full, in rank order, keeping the first lowest cost. */
Pick
exhaustivePick(const std::vector<CandidateDraw> &by_rank, double lambda)
{
    Pick best{-1, 1e30};
    for (const auto &c : by_rank) {
        uint64_t dist = 0;
        int bits = c.mode_bits;
        for (const auto &b : c.blocks) {
            dist += b.dist;
            bits += b.bits;
        }
        const double cost = static_cast<double>(dist) + lambda * bits;
        if (cost < best.cost)
            best = {c.rank, cost};
    }
    return best;
}

/** The encoder's branch and bound: skip, 16x16 inter, compound and
 *  split before intra, each behind its rate floor and a partial-cost
 *  check after every block. */
Pick
prunedPick(const std::vector<CandidateDraw> &by_rank, double lambda,
           int &pruned)
{
    static constexpr int kEncoderOrder[] = {
        kRankSkip,      kRankInter,     kRankInter + 1,
        kRankCompound,  kRankSplit,     kRankIntra,
        kRankIntra + 1, kRankIntra + 2, kRankIntra + 3};
    ModeBound bound(lambda);
    for (const int rank : kEncoderOrder) {
        const auto it =
            std::find_if(by_rank.begin(), by_rank.end(),
                         [&](const CandidateDraw &c) { return c.rank == rank; });
        if (it == by_rank.end())
            continue;
        if (bound.floorLoses(it->mode_bits, rank)) {
            ++pruned;
            continue;
        }
        uint64_t dist = 0;
        int bits = it->mode_bits;
        bool alive = true;
        for (const auto &b : it->blocks) {
            dist += b.dist;
            bits += b.bits;
            if (bound.partialLoses(dist, bits, rank)) {
                alive = false;
                break;
            }
        }
        if (!alive) {
            ++pruned;
            continue;
        }
        // A candidate that survives its last block beats the best.
        EXPECT_TRUE(bound.offer(bound.cost(dist, bits), rank));
    }
    return {bound.bestRank(), bound.bestCost()};
}

TEST(ModeBound, PrunedPickEqualsExhaustivePickWithForcedTies)
{
    Rng rng(0x6d6f6465626e64ULL);
    constexpr int kTrials = 20000;
    int pruned = 0;
    int tied_trials = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
        // lambda = 0.57 q^2 scale, as the encoder sets it.
        const double q = rng.uniformReal(0.6, 60.0);
        const double lambda = 0.57 * q * q * rng.uniformReal(1.0, 1.3);

        std::vector<CandidateDraw> by_rank;
        for (int rank = kRankIntra; rank <= kRankSplit; ++rank) {
            if (!by_rank.empty() && rng.bernoulli(0.25))
                continue;
            CandidateDraw c;
            c.rank = rank;
            const uint32_t kind = rng.uniformInt(6);
            if (kind <= 1 && !by_rank.empty()) {
                // A tie: an earlier candidate's blocks, reordered, so
                // its cost is equal but its partial costs are not.
                c = by_rank[rng.uniformInt(
                    static_cast<uint32_t>(by_rank.size()))];
                c.rank = rank;
                for (int i = kBlocksPerMb - 1; i > 0; --i) {
                    std::swap(c.blocks[static_cast<size_t>(i)],
                              c.blocks[rng.uniformInt(
                                  static_cast<uint32_t>(i + 1))]);
                }
            } else if (kind == 2 && !by_rank.empty()) {
                // A partial cost equal to an earlier candidate's cost
                // after the first block.
                const auto &other = by_rank[rng.uniformInt(
                    static_cast<uint32_t>(by_rank.size()))];
                c.mode_bits = other.mode_bits;
                c.blocks[0] = {0, 0};
                for (const auto &b : other.blocks) {
                    c.blocks[0].dist += b.dist;
                    c.blocks[0].bits += b.bits;
                }
                for (size_t i = 1; i < c.blocks.size(); ++i)
                    c.blocks[i] = {rng.uniformInt(200),
                                   rng.uniformRange(1, 4)};
            } else {
                c.mode_bits = rng.uniformRange(1, 12);
                // Kind 3: every block at its 1-bit, zero-distortion
                // floor, so the cost equals the rate floor.
                for (auto &b : c.blocks) {
                    b = kind == 3 ? BlockDraw{0, 1}
                                  : BlockDraw{rng.uniformInt(4000),
                                              rng.uniformRange(1, 60)};
                }
            }
            by_rank.push_back(c);
        }

        const Pick want = exhaustivePick(by_rank, lambda);
        const Pick got = prunedPick(by_rank, lambda, pruned);
        ASSERT_EQ(got.rank, want.rank) << "trial " << trial;
        ASSERT_EQ(got.cost, want.cost) << "trial " << trial;

        int at_best = 0;
        for (const auto &c : by_rank) {
            std::vector<CandidateDraw> one{c};
            at_best += exhaustivePick(one, lambda).cost == want.cost;
        }
        tied_trials += at_best > 1;
    }
    // The draws exercise both the prunes and the tie rule.
    EXPECT_GT(pruned, kTrials);
    EXPECT_GT(tied_trials, kTrials / 10);
}

// --- The kernels the pruning saves -------------------------------------

uint64_t
phaseCalls(const prof::ProfileSnapshot &snap, const std::string &name)
{
    for (const auto &p : snap.phases) {
        if (p.name == name)
            return p.calls;
    }
    return 0;
}

TEST(ModeBound, GoldenClipKernelCallCountsArePinned)
{
    // The bike/VP9/sw/2pass case of GoldenBitstream: every candidate
    // kind (intra, skip, inter on two refs, compound, split) competes.
    static const auto corpus = workload::vbenchCorpus(64, 10);
    const auto &spec = workload::vbenchClip(corpus, "bike").spec;
    const auto frames = generateVideo(spec);
    EncoderConfig cfg;
    cfg.codec = CodecType::VP9;
    cfg.hardware = false;
    cfg.width = spec.width;
    cfg.height = spec.height;
    cfg.fps = spec.fps;
    cfg.rc_mode = RcMode::TwoPassOffline;
    cfg.base_qp = 32;
    cfg.target_bitrate_bps = 60e3;
    cfg.gop_length = 8;

    prof::ProfileRegistry &reg = prof::ProfileRegistry::instance();
    reg.setEnabled(false);
    reg.reset();
    reg.setEnabled(true);
    const auto chunk = encodeSequence(cfg, frames);
    reg.setEnabled(false);
    const auto snap = reg.snapshot();
    reg.reset();

    EXPECT_FALSE(chunk.bytes.empty());
    // Exhaustive evaluation made 5,472 and 720 calls on this clip.
    EXPECT_EQ(phaseCalls(snap, "codec/dct_quant"), 2172u);
    EXPECT_EQ(phaseCalls(snap, "codec/motion_search"), 492u);
}

} // namespace
} // namespace wsva::video::codec
