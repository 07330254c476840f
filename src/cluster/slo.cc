#include "cluster/slo.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/metrics.h"

namespace wsva::cluster {

SloMonitor::SloMonitor(SloConfig cfg)
    : cfg_(cfg),
      // Lifetime latency histogram spans well past the target so the
      // p99 stays resolvable during bad stretches.
      latency_(0.0, std::max(1.0, 10.0 * cfg.p99_target_seconds), 200),
      // Live segments finish in seconds, not minutes: a finer, shorter
      // range keeps the live p99 resolvable next to batch latencies.
      live_latency_(0.0, std::max(1.0, cfg.p99_target_seconds), 200)
{
    WSVA_ASSERT(cfg_.window_ticks >= 1, "SLO window needs >= 1 tick");
    WSVA_ASSERT(cfg_.burn_alert_fraction > 0.0 &&
                    cfg_.burn_alert_fraction <= 1.0,
                "burn alert fraction must be in (0, 1]");
}

void
SloMonitor::attach(wsva::MetricsRegistry *metrics, wsva::TraceLog *trace)
{
    metrics_ = metrics;
    trace_ = trace;
}

void
SloMonitor::onSubmit(uint64_t step_id, double now, uint64_t span_id,
                     double deadline_time)
{
    // Re-submission under the same id overwrites; the old
    // submit_order_ entry no longer matches and is lazily discarded
    // by queueAge().
    inflight_.insertOrAssign(step_id, Upload{now, span_id, deadline_time});
    // Amortized stale-front pruning: onSubmit now runs even with all
    // telemetry dark, and a fleet that never consults queueAge()
    // would otherwise grow submit_order_ without bound (a long bench
    // run queues millions of entries). Completed/re-submitted fronts
    // are dead weight; pop them here the same way queueAge() does.
    while (!submit_order_.empty()) {
        const auto &[submit_time, id] = submit_order_.front();
        const Upload *up = inflight_.find(id);
        if (up != nullptr && up->submit_time == submit_time)
            break;
        submit_order_.pop_front();
    }
    submit_order_.push_back({now, step_id});
}

const SloMonitor::Upload *
SloMonitor::find(uint64_t step_id) const
{
    return inflight_.find(step_id);
}

void
SloMonitor::onCancel(uint64_t step_id)
{
    // The stale submit_order_ entry (if any) is lazily discarded by
    // queueAge()/onSubmit, same as a re-submission.
    inflight_.erase(step_id);
}

double
SloMonitor::onComplete(uint64_t step_id, double now)
{
    const Upload *up = inflight_.find(step_id);
    if (up == nullptr)
        return -1.0;
    const double latency = now - up->submit_time;
    const double deadline_time = up->deadline_time;
    inflight_.erase(step_id);
    ++completed_;
    latency_.add(latency);
    if (latency > cfg_.p99_target_seconds)
        ++violations_total_;
    const bool has_deadline =
        deadline_time < std::numeric_limits<double>::infinity();
    bool missed = false;
    if (has_deadline) {
        ++deadline_tracked_;
        missed = now > deadline_time;
        if (missed)
            ++deadline_missed_;
        live_latency_.add(latency);
    }
    if (cfg_.enabled) {
        window_latencies_.push_back({tick_, latency});
        if (latency > cfg_.p99_target_seconds)
            ++over_target_in_window_;
        if (has_deadline) {
            window_deadlines_.push_back({tick_, missed});
            if (missed)
                ++window_deadline_missed_;
        }
        p99_dirty_ = true;
    }
    return latency;
}

double
SloMonitor::deadlineMissRate() const
{
    if (deadline_tracked_ == 0)
        return 0.0;
    return static_cast<double>(deadline_missed_) /
           static_cast<double>(deadline_tracked_);
}

double
SloMonitor::windowDeadlineMissRate() const
{
    if (window_deadlines_.empty())
        return 0.0;
    return static_cast<double>(window_deadline_missed_) /
           static_cast<double>(window_deadlines_.size());
}

double
SloMonitor::windowP99() const
{
    // Memoized until the window mutates: the gauge decimation, the
    // fleet-health rollup, and the JSON export all want this value on
    // the same tick, and only the first caller should pay the O(n)
    // selection.
    if (!p99_dirty_)
        return p99_cached_;
    p99_dirty_ = false;
    if (window_latencies_.empty()) {
        p99_cached_ = 0.0;
        return 0.0;
    }
    // Nearest-rank p99 over the window: exact, deterministic, and
    // independent of histogram binning. Computed on demand (exports,
    // the decimated gauge) — the per-tick alert path uses the O(1)
    // over-target count instead.
    p99_scratch_.clear();
    p99_scratch_.reserve(window_latencies_.size());
    for (size_t i = 0; i < window_latencies_.size(); ++i)
        p99_scratch_.push_back(window_latencies_[i].second);
    const size_t n = p99_scratch_.size();
    const size_t rank =
        std::min(n - 1, static_cast<size_t>(0.99 * static_cast<double>(n)));
    std::nth_element(p99_scratch_.begin(),
                     p99_scratch_.begin() + static_cast<long>(rank),
                     p99_scratch_.end());
    p99_cached_ = p99_scratch_[rank];
    return p99_cached_;
}

double
SloMonitor::burnRate() const
{
    if (window_burning_.empty())
        return 0.0;
    return static_cast<double>(burning_ticks_) /
           static_cast<double>(window_burning_.size());
}

double
SloMonitor::queueAge(double now) const
{
    // Lazily discard entries whose upload finished (or was
    // re-submitted with a newer clock) since they reached the front.
    while (!submit_order_.empty()) {
        const auto &[submit_time, step_id] = submit_order_.front();
        const Upload *up = inflight_.find(step_id);
        if (up != nullptr && up->submit_time == submit_time)
            return std::max(0.0, now - submit_time);
        submit_order_.pop_front();
    }
    return 0.0;
}

void
SloMonitor::onTick(double now)
{
    if (!cfg_.enabled)
        return;
    ++tick_;
    // Drop completions that fell out of the sliding window.
    while (!window_latencies_.empty() &&
           window_latencies_.front().first + cfg_.window_ticks <= tick_) {
        if (window_latencies_.front().second > cfg_.p99_target_seconds)
            --over_target_in_window_;
        window_latencies_.pop_front();
        p99_dirty_ = true;
    }
    // Same eviction edge as the latency window: an entry stamped at
    // tick T leaves exactly when tick_ reaches T + window_ticks.
    while (!window_deadlines_.empty() &&
           window_deadlines_.front().first + cfg_.window_ticks <= tick_) {
        if (window_deadlines_.front().second)
            --window_deadline_missed_;
        window_deadlines_.pop_front();
    }

    // Burning iff the windowed nearest-rank p99 exceeds the target.
    // Equivalent rank-count form: value-at-rank > target exactly when
    // at least (n - rank) of the n window latencies exceed the target
    // (the over-target latencies occupy a suffix of the sorted
    // window). This keeps the per-tick check O(1).
    const size_t n = window_latencies_.size();
    bool burning = false;
    if (n > 0) {
        const size_t rank = std::min(
            n - 1, static_cast<size_t>(0.99 * static_cast<double>(n)));
        burning = over_target_in_window_ >= n - rank;
    }
    window_burning_.push_back(burning);
    burning_ticks_ += burning ? 1 : 0;
    while (window_burning_.size() > cfg_.window_ticks) {
        burning_ticks_ -= window_burning_.front() ? 1 : 0;
        window_burning_.pop_front();
    }

    const double burn = burnRate();

    // Hysteresis: raise at the alert fraction, clear only once the
    // burn rate recedes to half of it, so a rate sitting on the line
    // raises one alert rather than a flapping series.
    if (!alert_active_ && burn >= cfg_.burn_alert_fraction) {
        alert_active_ = true;
        ++alerts_raised_;
        if (trace_ != nullptr)
            trace_->record(TraceEventType::SloAlert, now);
        if (metrics_ != nullptr) {
            metrics_->inc("slo.alerts");
            metrics_->setGauge("slo.alert_active", 1.0);
        }
    } else if (alert_active_ && burn <= cfg_.burn_alert_fraction / 2.0) {
        alert_active_ = false;
        if (trace_ != nullptr)
            trace_->record(TraceEventType::SloAlertCleared, now);
        if (metrics_ != nullptr)
            metrics_->setGauge("slo.alert_active", 0.0);
    }

    // Dashboard values are decimated (the exact windowed p99 costs a
    // selection pass); alert evaluation above stays per-tick.
    if (metrics_ != nullptr && tick_ % SloConfig::kGaugeEveryTicks == 0) {
        const double p99 = windowP99();
        const double age = queueAge(now);
        metrics_->setGauge("slo.window_p99", p99);
        metrics_->setGauge("slo.burn_rate", burn);
        metrics_->setGauge("slo.queue_age", age);
        metrics_->setGauge("slo.alert_active", alert_active_ ? 1.0 : 0.0);
        metrics_->sample("slo.window_p99", now, p99);
        metrics_->sample("slo.burn_rate", now, burn);
        metrics_->sample("slo.queue_age", now, age);
        if (deadline_tracked_ > 0) {
            const double miss = windowDeadlineMissRate();
            metrics_->setGauge("slo.deadline_miss_rate", miss);
            metrics_->sample("slo.deadline_miss_rate", now, miss);
        }
    }
}

std::string
SloMonitor::exportJson(double now) const
{
    return strformat(
        "{\"p99_target_seconds\": %.6g, \"completed\": %llu, "
        "\"violations\": %llu, \"inflight\": %llu, "
        "\"lifetime_p50\": %.6g, \"lifetime_p99\": %.6g, "
        "\"window_p99\": %.6g, \"burn_rate\": %.6g, "
        "\"queue_age_seconds\": %.6g, \"alert_active\": %s, "
        "\"alerts\": %llu, "
        "\"deadline_tracked\": %llu, \"deadline_missed\": %llu, "
        "\"deadline_miss_rate\": %.6g, "
        "\"window_deadline_miss_rate\": %.6g, "
        "\"deadline_miss_budget\": %.6g, \"live_p99\": %.6g}",
        cfg_.p99_target_seconds,
        static_cast<unsigned long long>(completed_),
        static_cast<unsigned long long>(violations_total_),
        static_cast<unsigned long long>(inflight_.size()),
        latency_.quantile(0.5), latency_.quantile(0.99), windowP99(),
        burnRate(), queueAge(now), alert_active_ ? "true" : "false",
        static_cast<unsigned long long>(alerts_raised_),
        static_cast<unsigned long long>(deadline_tracked_),
        static_cast<unsigned long long>(deadline_missed_),
        deadlineMissRate(), windowDeadlineMissRate(),
        SloConfig::kDeadlineMissBudget, liveQuantile(0.99));
}

} // namespace wsva::cluster
