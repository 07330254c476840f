#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace wsva {

void
RunningStat::add(double x)
{
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    double delta = other.mean_ - mean_;
    uint64_t n = count_ + other.count_;
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    mean_ += delta * nb / static_cast<double>(n);
    m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
    count_ = n;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    WSVA_ASSERT(bins >= 1, "histogram needs at least one bin");
    WSVA_ASSERT(hi > lo, "histogram range must be non-empty");
}

void
Histogram::add(double x)
{
    ++count_;
    if (x < lo_) {
        ++underflow_;
    } else if (x >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<size_t>((x - lo_) / width_);
        idx = std::min(idx, counts_.size() - 1);
        ++counts_[idx];
    }
}

void
Histogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = 0;
    overflow_ = 0;
    count_ = 0;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the quantile sample, in [1, count_]: the smallest rank
    // whose cumulative fraction reaches q. ceil() keeps q=1 at the
    // last sample instead of falling off the end (which used to
    // report hi_ even with every sample in one interior bin), and
    // the >= comparisons below keep a quantile that lands exactly on
    // the underflow boundary attributed to the underflow bin.
    auto rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = underflow_;
    if (seen >= rank)
        return lo_;
    for (size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= rank)
            return lo_ + (static_cast<double>(i) + 0.5) * width_;
    }
    return hi_;
}

void
TimeWeightedStat::set(double now, double value)
{
    if (!started_) {
        started_ = true;
        start_time_ = now;
        last_time_ = now;
        value_ = value;
        return;
    }
    weighted_sum_ += value_ * (now - last_time_);
    last_time_ = now;
    value_ = value;
}

double
TimeWeightedStat::average(double now) const
{
    if (!started_ || now <= start_time_)
        return value_;
    double total = weighted_sum_ + value_ * (now - last_time_);
    return total / (now - start_time_);
}

} // namespace wsva
