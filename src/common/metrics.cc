#include "common/metrics.h"

#include <algorithm>
#include <initializer_list>
#include <set>

#include "common/logging.h"

namespace wsva {

std::string
sanitizePrometheusName(const std::string &name)
{
    std::string out;
    out.reserve(name.size() + 1);
    for (char c : name) {
        const bool legal = (c >= 'a' && c <= 'z') ||
                           (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += legal ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

namespace {

/**
 * Claims exposition family names, resolving post-sanitization
 * collisions with deterministic numeric suffixes. A histogram family
 * implicitly owns its `_bucket`/`_sum`/`_count` series, so those are
 * claimed alongside the base name — a counter named "x_count" and a
 * histogram named "x" cannot collide in the output.
 */
class PrometheusNamer
{
  public:
    /** Claim a family name for @p original (empty extra set). */
    std::string claim(const std::string &original)
    {
        return claimWithSuffixes(original, {});
    }

    /** Claim a histogram family (base + _bucket/_sum/_count). */
    std::string claimHistogram(const std::string &original)
    {
        return claimWithSuffixes(original, {"_bucket", "_sum", "_count"});
    }

  private:
    std::string claimWithSuffixes(const std::string &original,
                                  std::initializer_list<const char *> tails)
    {
        const std::string base = sanitizePrometheusName(original);
        std::string candidate = base;
        for (int n = 2; !available(candidate, tails); ++n)
            candidate = base + "_" + std::to_string(n);
        take(candidate, tails);
        return candidate;
    }

    bool available(const std::string &candidate,
                   std::initializer_list<const char *> tails) const
    {
        if (taken_.count(candidate))
            return false;
        for (const char *tail : tails)
            if (taken_.count(candidate + tail))
                return false;
        return true;
    }

    void take(const std::string &candidate,
              std::initializer_list<const char *> tails)
    {
        taken_.insert(candidate);
        for (const char *tail : tails)
            taken_.insert(candidate + tail);
    }

    std::set<std::string> taken_;
};

/** Append "# HELP"/"# TYPE" lines (HELP text escapes \ and \n). */
void
appendPrometheusHeader(std::string &out, const std::string &name,
                       const char *type, const std::string &original)
{
    out += "# HELP " + name + " wsva ";
    out += type;
    out += " '";
    for (char c : original) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    out += "'\n# TYPE " + name + " ";
    out += type;
    out += '\n';
}

} // namespace

void
MetricsRegistry::inc(const std::string &name, uint64_t delta)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name].fetch_add(delta, std::memory_order_relaxed);
}

CounterHandle
MetricsRegistry::counterHandle(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return CounterHandle(&counters_[name], &enabled_);
}

void
MetricsRegistry::setGauge(const std::string &name, double value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

Histogram &
MetricsRegistry::histogramLocked(const std::string &name, double lo,
                                 double hi, size_t bins)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(lo, hi, bins)).first;
    return it->second;
}

void
MetricsRegistry::observe(const std::string &name, double value, double lo,
                         double hi, size_t bins)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    histogramLocked(name, lo, hi, bins).add(value);
}

HistogramHandle
MetricsRegistry::histogramHandle(const std::string &name, double lo,
                                 double hi, size_t bins)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return HistogramHandle(&histogramLocked(name, lo, hi, bins), &mutex_,
                           &enabled_);
}

void
MetricsRegistry::sample(const std::string &name, double t, double value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    Series &s = series_[name];
    if (s.countdown > 0) {
        --s.countdown;
        return;
    }
    s.countdown = s.stride - 1;
    s.points.emplace_back(t, value);
    if (s.points.size() >= kMaxSeriesPoints) {
        // Halve the history and double the stride: bounded memory,
        // coarse-but-complete coverage of the whole run.
        std::vector<TimeSample> kept;
        kept.reserve(s.points.size() / 2 + 1);
        for (size_t i = 0; i < s.points.size(); i += 2)
            kept.push_back(s.points[i]);
        s.points = std::move(kept);
        s.stride *= 2;
    }
}

uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end()
               ? 0
               : it->second.load(std::memory_order_relaxed);
}

double
MetricsRegistry::gauge(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

uint64_t
MetricsRegistry::histogramCount(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? 0 : it->second.count();
}

double
MetricsRegistry::histogramQuantile(const std::string &name, double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? 0.0 : it->second.quantile(q);
}

std::vector<TimeSample>
MetricsRegistry::seriesSnapshot(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = series_.find(name);
    return it == series_.end() ? std::vector<TimeSample>{}
                               : it->second.points;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Zero counters and empty histograms in place: outstanding
    // handles keep pointing at live cells.
    for (auto &[name, value] : counters_)
        value.store(0, std::memory_order_relaxed);
    for (auto &[name, h] : histograms_)
        h.clear();
    gauges_.clear();
    series_.clear();
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // schema_version lets bench-JSON consumers detect format drift;
    // bump it on any structural change to this export.
    std::string out = "{\n  \"schema_version\": 1,\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += strformat(": %llu",
                         static_cast<unsigned long long>(
                             value.load(std::memory_order_relaxed)));
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &[name, value] : gauges_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += strformat(": %.6g", value);
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms_) {
        if (h.count() == 0)
            continue;
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += strformat(
            ": {\"count\": %llu, \"underflow\": %llu, "
            "\"overflow\": %llu, \"p50\": %.6g, \"p90\": %.6g, "
            "\"p99\": %.6g, \"bins\": [",
            static_cast<unsigned long long>(h.count()),
            static_cast<unsigned long long>(h.underflow()),
            static_cast<unsigned long long>(h.overflow()),
            h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
        for (size_t i = 0; i < h.bins(); ++i) {
            if (i > 0)
                out += ", ";
            out += strformat(
                "%llu", static_cast<unsigned long long>(h.binCount(i)));
        }
        out += "]}";
    }
    out += "\n  },\n  \"series\": {";
    first = true;
    for (const auto &[name, s] : series_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += strformat(": {\"stride\": %llu, \"points\": [",
                         static_cast<unsigned long long>(s.stride));
        for (size_t i = 0; i < s.points.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += strformat("[%.6g, %.6g]", s.points[i].first,
                             s.points[i].second);
        }
        out += "]}";
    }
    out += "\n  }\n}";
    return out;
}

std::string
MetricsRegistry::toPrometheusText() const
{
    // Copy the metric state under the lock, format outside it: a
    // scrape must never stall inc()/setGauge()/observe() for the
    // duration of string formatting.
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram>> histograms;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counters.reserve(counters_.size());
        for (const auto &[name, value] : counters_)
            counters.emplace_back(name,
                                  value.load(std::memory_order_relaxed));
        gauges.reserve(gauges_.size());
        for (const auto &[name, value] : gauges_)
            gauges.emplace_back(name, value);
        histograms.reserve(histograms_.size());
        for (const auto &[name, h] : histograms_) {
            if (h.count() > 0)
                histograms.emplace_back(name, h);
        }
    }

    // Family names are claimed in a fixed order (counters, gauges,
    // histograms; each alphabetical from the source std::map), so the
    // collision suffixes are deterministic run to run.
    PrometheusNamer namer;
    std::string out;
    for (const auto &[original, value] : counters) {
        const std::string name = namer.claim(original);
        appendPrometheusHeader(out, name, "counter", original);
        out += name +
               strformat(" %llu\n",
                         static_cast<unsigned long long>(value));
    }
    for (const auto &[original, value] : gauges) {
        const std::string name = namer.claim(original);
        appendPrometheusHeader(out, name, "gauge", original);
        out += name + strformat(" %.9g\n", value);
    }
    for (const auto &[original, h] : histograms) {
        const std::string name = namer.claimHistogram(original);
        appendPrometheusHeader(out, name, "histogram", original);
        // Cumulative buckets over the bin upper edges. Underflow
        // (samples below lo) belongs in every bucket; overflow only
        // in +Inf.
        uint64_t cumulative = h.underflow();
        double sum = static_cast<double>(h.underflow()) * h.lo();
        for (size_t i = 0; i < h.bins(); ++i) {
            cumulative += h.binCount(i);
            const double upper = h.lo() + h.binWidth() *
                                              static_cast<double>(i + 1);
            out += name +
                   strformat("_bucket{le=\"%.9g\"} %llu\n", upper,
                             static_cast<unsigned long long>(cumulative));
            const double mid = h.lo() + h.binWidth() *
                                            (static_cast<double>(i) + 0.5);
            sum += static_cast<double>(h.binCount(i)) * mid;
        }
        sum += static_cast<double>(h.overflow()) * h.hi();
        out += name +
               strformat("_bucket{le=\"+Inf\"} %llu\n",
                         static_cast<unsigned long long>(h.count()));
        out += name + strformat("_sum %.9g\n", sum);
        out += name +
               strformat("_count %llu\n",
                         static_cast<unsigned long long>(h.count()));
    }
    return out;
}

const char *
traceEventTypeName(TraceEventType type)
{
    switch (type) {
      case TraceEventType::FaultInjected: return "fault_injected";
      case TraceEventType::SilentFaultInjected:
        return "silent_fault_injected";
      case TraceEventType::HostEnterRepair: return "host_enter_repair";
      case TraceEventType::HostRepaired: return "host_repaired";
      case TraceEventType::StepScheduled: return "step_scheduled";
      case TraceEventType::StepCompleted: return "step_completed";
      case TraceEventType::StepFailed: return "step_failed";
      case TraceEventType::StepRetried: return "step_retried";
      case TraceEventType::StepCorrupt: return "step_corrupt";
      case TraceEventType::WorkerQuarantined:
        return "worker_quarantined";
      case TraceEventType::SloAlert: return "slo_alert";
      case TraceEventType::SloAlertCleared: return "slo_alert_cleared";
      case TraceEventType::StepShed: return "step_shed";
    }
    return "unknown";
}

TraceLog::TraceLog(size_t capacity) : capacity_(capacity)
{
    WSVA_ASSERT(capacity > 0, "trace log needs a positive capacity");
}

void
TraceLog::record(const TraceEvent &event)
{
    if (!enabled())
        return;
    std::lock_guard<SpinLock> lock(mutex_);
    ++recorded_;
    ++counts_[static_cast<size_t>(event.type)];
    if (events_.size() == capacity_) {
        events_.pop_front();
        ++dropped_;
    }
    events_.push_back(event);
}

void
TraceLog::record(TraceEventType type, double time, int host, int worker,
                 uint64_t step_id, uint64_t video_id)
{
    record(TraceEvent{type, time, host, worker, step_id, video_id});
}

size_t
TraceLog::size() const
{
    std::lock_guard<SpinLock> lock(mutex_);
    return events_.size();
}

uint64_t
TraceLog::recorded() const
{
    std::lock_guard<SpinLock> lock(mutex_);
    return recorded_;
}

uint64_t
TraceLog::dropped() const
{
    std::lock_guard<SpinLock> lock(mutex_);
    return dropped_;
}

uint64_t
TraceLog::countOf(TraceEventType type) const
{
    std::lock_guard<SpinLock> lock(mutex_);
    return counts_[static_cast<size_t>(type)];
}

std::vector<TraceEvent>
TraceLog::snapshot(size_t max_events) const
{
    std::lock_guard<SpinLock> lock(mutex_);
    const size_t n = std::min(max_events, events_.size());
    std::vector<TraceEvent> out;
    out.reserve(n);
    for (size_t i = events_.size() - n; i < events_.size(); ++i)
        out.push_back(events_[i]);
    return out;
}

void
TraceLog::clear()
{
    std::lock_guard<SpinLock> lock(mutex_);
    events_.clear();
    recorded_ = 0;
    dropped_ = 0;
    counts_.fill(0);
}

std::string
TraceLog::toJson(size_t max_events) const
{
    // The record path spins on this lock from every worker; holding
    // it while formatting the whole document turned a scrape into a
    // cluster-wide stall (handler-pool threads serving /varz burned
    // the sim's CPU). Copy the state out first; format unlocked.
    uint64_t recorded = 0;
    uint64_t dropped = 0;
    std::array<uint64_t, kTraceEventTypeCount> counts{};
    std::vector<TraceEvent> events;
    {
        std::lock_guard<SpinLock> lock(mutex_);
        recorded = recorded_;
        dropped = dropped_;
        counts = counts_;
        const size_t n = std::min(max_events, events_.size());
        events.reserve(n);
        for (size_t i = events_.size() - n; i < events_.size(); ++i)
            events.push_back(events_[i]);
    }

    std::string out = strformat(
        "{\n  \"recorded\": %llu,\n  \"dropped\": %llu,\n"
        "  \"counts\": {",
        static_cast<unsigned long long>(recorded),
        static_cast<unsigned long long>(dropped));
    for (size_t i = 0; i < counts.size(); ++i) {
        out += i == 0 ? "\n    " : ",\n    ";
        appendJsonString(
            out, traceEventTypeName(static_cast<TraceEventType>(i)));
        out += strformat(": %llu",
                         static_cast<unsigned long long>(counts[i]));
    }
    out += "\n  },\n  \"events\": [";
    for (size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &e = events[i];
        out += i == 0 ? "\n    " : ",\n    ";
        out += strformat(
            "{\"t\": %.6g, \"type\": \"%s\", \"host\": %d, "
            "\"worker\": %d, \"step\": %llu, \"video\": %llu}",
            e.time, traceEventTypeName(e.type), e.host, e.worker,
            static_cast<unsigned long long>(e.step_id),
            static_cast<unsigned long long>(e.video_id));
    }
    out += "\n  ]\n}";
    return out;
}

} // namespace wsva
