#include "common/trace.h"

#include <algorithm>
#include <array>

#include "common/logging.h"

namespace wsva {

namespace {

thread_local SpanContext tls_context{};

/** Dense per-thread track ids for wall spans (0 = unassigned). */
thread_local int tls_track = 0;
std::atomic<int> next_track{1};

int
currentThreadTrack()
{
    if (tls_track == 0)
        tls_track = next_track.fetch_add(1, std::memory_order_relaxed);
    return tls_track;
}

} // namespace

SpanContext
currentSpanContext()
{
    return tls_context;
}

ScopedSpanContext::ScopedSpanContext(const SpanContext &ctx)
    : prev_(tls_context)
{
    tls_context = ctx;
}

ScopedSpanContext::~ScopedSpanContext()
{
    tls_context = prev_;
}

Tracer::Tracer(size_t capacity)
    : capacity_(capacity), epoch_(std::chrono::steady_clock::now())
{
    WSVA_ASSERT(capacity > 0, "tracer needs a positive capacity");
}

double
Tracer::wallMicros() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Tracer::record(SpanRecord rec)
{
    if (!enabled())
        return;
    if (rec.id == 0)
        rec.id = nextId();
    std::lock_guard<SpinLock> lock(mutex_);
    ++recorded_;
    if (spans_.size() == capacity_) {
        spans_.pop_front();
        ++dropped_;
    }
    spans_.push_back(rec);
}

uint64_t
Tracer::recordSimSpan(const char *name, const char *category,
                      double begin_us, double end_us, int track,
                      uint64_t parent, int process, const char *arg1_key,
                      uint64_t arg1, const char *arg2_key, uint64_t arg2)
{
    if (!enabled())
        return 0;
    SpanRecord rec;
    rec.name = name;
    rec.category = category;
    rec.id = nextId();
    rec.parent = parent;
    rec.clock = SpanClock::Sim;
    rec.begin_us = begin_us;
    rec.end_us = end_us;
    rec.track = track;
    rec.process = process;
    rec.arg1_key = arg1_key;
    rec.arg1 = arg1;
    rec.arg2_key = arg2_key;
    rec.arg2 = arg2;
    record(rec);
    return rec.id;
}

void
Tracer::instant(const char *name, const char *category,
                const char *arg1_key, uint64_t arg1,
                const char *arg2_key, uint64_t arg2)
{
    if (!enabled())
        return;
    SpanRecord rec;
    rec.name = name;
    rec.category = category;
    rec.instant = true;
    const SpanContext ctx = currentSpanContext();
    rec.parent = ctx.tracer == this ? ctx.span_id : 0;
    rec.begin_us = wallMicros();
    rec.end_us = rec.begin_us;
    rec.track = currentThreadTrack();
    rec.arg1_key = arg1_key;
    rec.arg1 = arg1;
    rec.arg2_key = arg2_key;
    rec.arg2 = arg2;
    record(rec);
}

const char *
Tracer::intern(const std::string &name)
{
    std::lock_guard<SpinLock> lock(mutex_);
    auto it = intern_index_.find(name);
    if (it != intern_index_.end())
        return it->second;
    interned_.push_back(name);
    const char *stable = interned_.back().c_str();
    intern_index_.emplace(name, stable);
    return stable;
}

size_t
Tracer::size() const
{
    std::lock_guard<SpinLock> lock(mutex_);
    return spans_.size();
}

uint64_t
Tracer::recorded() const
{
    std::lock_guard<SpinLock> lock(mutex_);
    return recorded_;
}

uint64_t
Tracer::dropped() const
{
    std::lock_guard<SpinLock> lock(mutex_);
    return dropped_;
}

std::vector<SpanRecord>
Tracer::snapshot() const
{
    std::lock_guard<SpinLock> lock(mutex_);
    std::vector<SpanRecord> out;
    out.reserve(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        out.push_back(spans_[i]);
    return out;
}

void
Tracer::clear()
{
    std::lock_guard<SpinLock> lock(mutex_);
    spans_.clear();
    recorded_ = 0;
    dropped_ = 0;
}

std::string
Tracer::exportChromeTrace(const TraceLog *events) const
{
    const std::vector<SpanRecord> spans = snapshot();

    std::string out = "{\n\"schema_version\": 1,\n"
                      "\"displayTimeUnit\": \"ms\",\n"
                      "\"traceEvents\": [";
    bool first = true;
    const auto sep = [&] {
        out += first ? "\n" : ",\n";
        first = false;
    };

    // Name the process lanes that actually appear, so Perfetto shows
    // "wall" / "sim" / ... instead of bare pids.
    std::array<bool, 5> pid_used{};
    for (const auto &rec : spans) {
        const int pid = rec.process != 0
                            ? rec.process
                            : (rec.clock == SpanClock::Wall
                                   ? kProcessWall
                                   : kProcessSim);
        if (pid >= 0 && static_cast<size_t>(pid) < pid_used.size())
            pid_used[static_cast<size_t>(pid)] = true;
    }
    if (events != nullptr)
        pid_used[kProcessSim] = true;
    static const char *kPidNames[] = {"", "wall", "sim", "sim_hosts",
                                      "hlsim"};
    for (size_t pid = 1; pid < pid_used.size(); ++pid) {
        if (!pid_used[pid])
            continue;
        sep();
        out += strformat("{\"name\": \"process_name\", \"ph\": \"M\", "
                         "\"pid\": %zu, \"args\": {\"name\": \"%s\"}}",
                         pid, kPidNames[pid]);
    }

    for (const auto &rec : spans) {
        const int pid = rec.process != 0
                            ? rec.process
                            : (rec.clock == SpanClock::Wall
                                   ? kProcessWall
                                   : kProcessSim);
        sep();
        out += "{\"name\": ";
        appendJsonString(out, rec.name);
        out += ", \"cat\": ";
        appendJsonString(out, *rec.category != '\0' ? rec.category
                                                    : "default");
        if (rec.instant) {
            out += strformat(", \"ph\": \"i\", \"s\": \"t\", "
                             "\"pid\": %d, \"tid\": %d, \"ts\": %.3f",
                             pid, rec.track, rec.begin_us);
        } else {
            const double dur =
                std::max(0.0, rec.end_us - rec.begin_us);
            out += strformat(", \"ph\": \"X\", \"pid\": %d, "
                             "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                             pid, rec.track, rec.begin_us, dur);
        }
        out += strformat(", \"args\": {\"id\": %llu, \"parent\": %llu",
                         static_cast<unsigned long long>(rec.id),
                         static_cast<unsigned long long>(rec.parent));
        if (rec.arg1_key != nullptr) {
            out += ", ";
            appendJsonString(out, rec.arg1_key);
            out += strformat(": %llu",
                             static_cast<unsigned long long>(rec.arg1));
        }
        if (rec.arg2_key != nullptr) {
            out += ", ";
            appendJsonString(out, rec.arg2_key);
            out += strformat(": %llu",
                             static_cast<unsigned long long>(rec.arg2));
        }
        out += "}}";
    }

    if (events != nullptr) {
        // Bridge the typed event ring: each event becomes an instant
        // on its worker's sim track plus a bump of the cumulative
        // per-type counter track (Chrome "C" events render these as
        // stacked counter series).
        std::array<uint64_t, kTraceEventTypeCount> cumulative{};
        for (const auto &ev : events->snapshot()) {
            const char *type = traceEventTypeName(ev.type);
            const double ts = ev.time * 1e6;
            const int tid = ev.worker >= 0
                                ? ev.worker
                                : (ev.host >= 0 ? ev.host : 0);
            sep();
            out += "{\"name\": ";
            appendJsonString(out, type);
            out += strformat(
                ", \"cat\": \"cluster_event\", \"ph\": \"i\", "
                "\"s\": \"p\", \"pid\": %d, \"tid\": %d, "
                "\"ts\": %.3f, \"args\": {\"host\": %d, "
                "\"worker\": %d, \"step\": %llu, \"video\": %llu}}",
                kProcessSim, tid, ts, ev.host, ev.worker,
                static_cast<unsigned long long>(ev.step_id),
                static_cast<unsigned long long>(ev.video_id));
            ++cumulative[static_cast<size_t>(ev.type)];
            sep();
            out += strformat("{\"name\": \"cluster_events\", "
                             "\"ph\": \"C\", \"pid\": %d, \"tid\": 0, "
                             "\"ts\": %.3f, \"args\": {",
                             kProcessSim, ts);
            appendJsonString(out, type);
            out += strformat(
                ": %llu}}",
                static_cast<unsigned long long>(
                    cumulative[static_cast<size_t>(ev.type)]));
        }
    }

    out += "\n]\n}";
    return out;
}

Span::Span(Tracer *tracer, const char *name, const char *category)
{
    if (tracer == nullptr || !tracer->enabled())
        return; // Disabled path: tracer_ stays null, destructor no-ops.
    tracer_ = tracer;
    rec_.name = name;
    rec_.category = category;
    rec_.id = tracer->nextId();
    const SpanContext ctx = currentSpanContext();
    rec_.parent = ctx.tracer == tracer ? ctx.span_id : 0;
    rec_.clock = SpanClock::Wall;
    rec_.track = currentThreadTrack();
    rec_.begin_us = tracer->wallMicros();
    prev_ = ctx;
    tls_context = SpanContext{tracer, rec_.id};
}

Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    rec_.end_us = tracer_->wallMicros();
    tracer_->record(rec_);
    tls_context = prev_;
}

void
Span::arg(const char *key, uint64_t value)
{
    if (tracer_ == nullptr)
        return;
    if (rec_.arg1_key == nullptr) {
        rec_.arg1_key = key;
        rec_.arg1 = value;
    } else if (rec_.arg2_key == nullptr) {
        rec_.arg2_key = key;
        rec_.arg2 = value;
    }
}

} // namespace wsva
