/**
 * @file
 * The selection rule of the encoder's macroblock mode decision, run
 * as a branch and bound that picks exactly what exhaustive evaluation
 * picks. Internal to the codec: the encoder and its tests include it.
 *
 * A candidate's rate-distortion cost is double(dist) + lambda * bits,
 * summed over its six 8x8 transform blocks, with dist >= 0 and
 * lambda > 0. The winner is the lowest (cost, rank) pair, where the
 * rank is the candidate's place in the exhaustive order (ModeRank).
 * Candidates may therefore be evaluated in any order: equal costs
 * still go to the lower rank.
 *
 * A candidate is dropped as soon as a lower bound of its cost loses:
 * the bound is above the best cost so far, or equal to it while the
 * candidate ranks later, so it could at best tie and lose the tie.
 * Two lower bounds are used, both exact:
 *  - the partial cost after some of the blocks. dist and bits only
 *    grow block by block, and IEEE round-to-nearest addition and
 *    multiplication by lambda > 0 are monotone, so the partial cost
 *    never exceeds the final one;
 *  - the rate floor lambda * (mode_bits + kBlocksPerMb), before any
 *    block is coded: every block codes at least its 1-bit cbf, and
 *    0 + x is exactly x.
 */

#ifndef WSVA_VIDEO_CODEC_MODE_BOUND_H
#define WSVA_VIDEO_CODEC_MODE_BOUND_H

#include <cstdint>
#include <limits>

#include "common/logging.h"

namespace wsva::video::codec {

/** Transform blocks per macroblock: four 8x8 luma, one per chroma. */
constexpr int kBlocksPerMb = 6;

/** A candidate's place in the exhaustive evaluation order. */
enum ModeRank : int {
    kRankIntra = 0,    //!< Plus the intra mode's index (0-3).
    kRankSkip = 4,
    kRankInter = 5,    //!< Plus the reference's place by SAD (0-1).
    kRankCompound = 7,
    kRankSplit = 8,
};

/** The best candidate so far, and the tests that prune the others. */
class ModeBound
{
  public:
    explicit ModeBound(double lambda) : lambda_(lambda)
    {
        WSVA_ASSERT(lambda > 0.0, "RD lambda must be positive, got %g",
                    lambda);
    }

    double lambda() const { return lambda_; }
    double bestCost() const { return best_cost_; }
    int bestRank() const { return best_rank_; }

    /** The RD cost of @p dist and @p bits. */
    double cost(uint64_t dist, int bits) const
    {
        return static_cast<double>(dist) + lambda_ * bits;
    }

    /**
     * True if a candidate of rank @p rank whose cost is at least
     * @p lower_bound cannot beat the best so far.
     */
    bool loses(double lower_bound, int rank) const
    {
        return lower_bound > best_cost_ ||
               (lower_bound == best_cost_ && rank >= best_rank_);
    }

    /** Rate floor: true if a candidate that signals @p mode_bits loses
     *  before any of its blocks is coded. */
    bool floorLoses(int mode_bits, int rank) const
    {
        return loses(cost(0, mode_bits + kBlocksPerMb), rank);
    }

    /** Partial-cost exit: true if a candidate that has spent @p dist
     *  and @p bits on some of its blocks loses. */
    bool partialLoses(uint64_t dist, int bits, int rank) const
    {
        return loses(cost(dist, bits), rank);
    }

    /**
     * Offer a fully evaluated candidate. It becomes the best, and the
     * call returns true, if its (cost, rank) is below the best's.
     */
    bool offer(double cost, int rank)
    {
        if (loses(cost, rank))
            return false;
        best_cost_ = cost;
        best_rank_ = rank;
        return true;
    }

  private:
    double lambda_;
    double best_cost_ = std::numeric_limits<double>::infinity();
    int best_rank_ = std::numeric_limits<int>::max();
};

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_MODE_BOUND_H
