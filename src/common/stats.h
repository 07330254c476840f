/**
 * @file
 * Lightweight statistics accumulators used by the simulators and the
 * bench harnesses: running mean/variance, min/max, histograms, and
 * time-weighted utilization tracking.
 */

#ifndef WSVA_COMMON_STATS_H
#define WSVA_COMMON_STATS_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace wsva {

/** Welford running mean / variance / extrema accumulator. */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples so far. */
    uint64_t count() const { return count_; }

    /** Mean of the samples (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Sample variance (0 with fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest sample (+inf when empty). */
    double min() const { return min_; }

    /** Largest sample (-inf when empty). */
    double max() const { return max_; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    /** Reset to the empty state. */
    void reset();

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-width linear histogram over [lo, hi) with under/overflow bins. */
class Histogram
{
  public:
    /**
     * @param lo Lower edge of the first in-range bin.
     * @param hi Upper edge of the last in-range bin.
     * @param bins Number of in-range bins (>=1).
     */
    Histogram(double lo, double hi, size_t bins);

    /** Add one sample. */
    void add(double x);

    /** Total samples including under/overflow. */
    uint64_t count() const { return count_; }

    /** Count in in-range bin @p i. */
    uint64_t binCount(size_t i) const { return counts_.at(i); }

    /** Samples below the range. */
    uint64_t underflow() const { return underflow_; }

    /** Samples at or above the range. */
    uint64_t overflow() const { return overflow_; }

    /** Number of in-range bins. */
    size_t bins() const { return counts_.size(); }

    /** Lower edge of the first in-range bin. */
    double lo() const { return lo_; }

    /** Upper edge of the last in-range bin. */
    double hi() const { return hi_; }

    /** Width of one in-range bin. */
    double binWidth() const { return width_; }

    /** Approximate quantile q in [0,1] from bin midpoints. */
    double quantile(double q) const;

    /** Drop every sample; the range and the bins stay. */
    void clear();

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<uint64_t> counts_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t count_ = 0;
};

/**
 * Time-weighted average of a piecewise-constant signal, e.g. the
 * utilization of a resource over simulated time.
 */
class TimeWeightedStat
{
  public:
    /** Record that the signal changed to @p value at time @p now. */
    void set(double now, double value);

    /** Time-weighted mean over [start, now]. */
    double average(double now) const;

    /** Most recent value. */
    double current() const { return value_; }

  private:
    double value_ = 0.0;
    double last_time_ = 0.0;
    double weighted_sum_ = 0.0;
    double start_time_ = 0.0;
    bool started_ = false;
};

} // namespace wsva

#endif // WSVA_COMMON_STATS_H
