#include "common/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"

namespace wsva::prof {

namespace {

double
toMs(uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

}  // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

ProfileRegistry::ThreadBlock::ThreadBlock()
{
    for (int i = 0; i < kMaxPhases; ++i) {
        incl_ns[i].store(0, std::memory_order_relaxed);
        child_ns[i].store(0, std::memory_order_relaxed);
        calls[i].store(0, std::memory_order_relaxed);
    }
    for (int i = 0; i < kMaxStackDepth; ++i)
        stack[i].store(-1, std::memory_order_relaxed);
    std::memset(skip, 0, sizeof(skip));
    name[0] = '\0';
}

struct ProfileRegistry::Impl {
    mutable std::mutex mu;                       // phase table + threads
    std::string phase_names[kMaxPhases];
    std::deque<std::unique_ptr<ThreadBlock>> threads;  // never freed

    // Sampler-owned accumulators.  sample_mu guards the collapsed map
    // and leaf counts against /profilez readers; only the sampler
    // thread writes.
    mutable std::mutex sample_mu;
    uint64_t leaf_samples[kMaxPhases] = {};
    std::map<std::string, uint64_t> collapsed;   // "a;b;c" -> samples
    uint64_t total_samples = 0;

    std::thread sampler;

    // Double-buffered published snapshot (FleetHealthBoard pattern).
    mutable SpinLock board_lock;
    std::shared_ptr<const ProfileSnapshot> board =
        std::make_shared<const ProfileSnapshot>();
};

ProfileRegistry &
ProfileRegistry::instance()
{
    static ProfileRegistry *g = new ProfileRegistry();  // never destroyed
    return *g;
}

ProfileRegistry::ProfileRegistry() : impl_(new Impl) {}

ProfileRegistry::~ProfileRegistry()
{
    stopSampler();
    delete impl_;
}

int
ProfileRegistry::intern(const char *path)
{
    if (path == nullptr || path[0] == '\0')
        return -1;
    std::lock_guard<std::mutex> lock(impl_->mu);
    const int n = phase_count_.load(std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
        if (impl_->phase_names[i] == path)
            return i;
    }
    if (n >= kMaxPhases)
        return -1;
    impl_->phase_names[n] = path;
    phase_count_.store(n + 1, std::memory_order_release);
    return n;
}

std::string
ProfileRegistry::phaseName(int id) const
{
    if (id < 0 || id >= phase_count_.load(std::memory_order_acquire))
        return "";
    // phase_names[id] is written once before the release store that
    // made `id` visible and is immutable afterwards.
    return impl_->phase_names[id];
}

ProfileRegistry::ThreadBlock *
ProfileRegistry::registerThread()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->threads.push_back(std::make_unique<ThreadBlock>());
    ThreadBlock *b = impl_->threads.back().get();
    std::snprintf(b->name, sizeof(b->name), "t%zu",
                  impl_->threads.size() - 1);
    return b;
}

ProfileRegistry::ThreadBlock &
ProfileRegistry::tls()
{
    thread_local ThreadBlock *block = instance().registerThread();
    return *block;
}

void
ProfileRegistry::setThreadName(const std::string &name)
{
    ThreadBlock &b = tls();
    std::lock_guard<std::mutex> lock(impl_->mu);
    std::snprintf(b.name, sizeof(b.name), "%s", name.c_str());
}

void
ProfScope::enter(int phase)
{
    ProfileRegistry::ThreadBlock &b = ProfileRegistry::tls();
    const int d = b.depth.load(std::memory_order_relaxed);
    block_ = &b;
    phase_ = phase;
    depth_ = d;
    if (d < kMaxStackDepth) {
        // Publish the slot before bumping depth so the sampler only
        // ever reads initialized entries.
        b.stack[d].store(phase, std::memory_order_relaxed);
        b.depth.store(d + 1, std::memory_order_release);
    }
    start_ns_ = nowNs();
}

void
ProfScope::leave()
{
    const uint64_t elapsed = nowNs() - start_ns_;
    ProfileRegistry::ThreadBlock &b = *block_;
    b.incl_ns[phase_].fetch_add(elapsed, std::memory_order_relaxed);
    b.calls[phase_].fetch_add(1, std::memory_order_relaxed);
    if (depth_ > 0 && depth_ <= kMaxStackDepth) {
        const int parent =
            b.stack[depth_ - 1].load(std::memory_order_relaxed);
        if (parent >= 0 && parent < kMaxPhases)
            b.child_ns[parent].fetch_add(elapsed,
                                         std::memory_order_relaxed);
    }
    if (depth_ < kMaxStackDepth)
        b.depth.store(depth_, std::memory_order_release);
}

void
ProfScopeSampled::enter(int phase, uint32_t period)
{
    ProfileRegistry::ThreadBlock &b = ProfileRegistry::tls();
    block_ = &b;
    phase_ = phase;
    const int d = b.depth.load(std::memory_order_relaxed);
    depth_ = d;
    // Every call publishes its phase, timed or not, so the sampler
    // sees the phase for all of its wall time.
    if (d < kMaxStackDepth) {
        b.stack[d].store(phase, std::memory_order_relaxed);
        b.depth.store(d + 1, std::memory_order_release);
    }
    // Cheap path: no clock reads. The timed 1-in-period call carries
    // this call's share of the time.
    if (period > 1 && ++b.skip[phase] % period != 0)
        return;
    scale_ = period;
    start_ns_ = nowNs();
}

void
ProfScopeSampled::leave()
{
    ProfileRegistry::ThreadBlock &b = *block_;
    b.calls[phase_].fetch_add(1, std::memory_order_relaxed);
    if (scale_ != 0) {
        const uint64_t elapsed = (nowNs() - start_ns_) * scale_;
        b.incl_ns[phase_].fetch_add(elapsed, std::memory_order_relaxed);
        if (depth_ > 0 && depth_ <= kMaxStackDepth) {
            const int parent =
                b.stack[depth_ - 1].load(std::memory_order_relaxed);
            if (parent >= 0 && parent < kMaxPhases)
                b.child_ns[parent].fetch_add(elapsed,
                                             std::memory_order_relaxed);
        }
    }
    if (depth_ < kMaxStackDepth)
        b.depth.store(depth_, std::memory_order_release);
}

void
addTime(int phase, uint64_t ns, uint64_t calls)
{
    if (phase < 0 || phase >= kMaxPhases)
        return;
    ProfileRegistry::ThreadBlock &b = ProfileRegistry::tls();
    b.incl_ns[phase].fetch_add(ns, std::memory_order_relaxed);
    b.calls[phase].fetch_add(calls, std::memory_order_relaxed);
    const int d = b.depth.load(std::memory_order_relaxed);
    if (d > 0 && d <= kMaxStackDepth) {
        const int parent = b.stack[d - 1].load(std::memory_order_relaxed);
        if (parent >= 0 && parent < kMaxPhases)
            b.child_ns[parent].fetch_add(ns, std::memory_order_relaxed);
    }
}

ProfileSnapshot
ProfileRegistry::buildSnapshot() const
{
    ProfileSnapshot snap;
    snap.enabled = enabled();
    const int n = phaseCount();
    std::vector<uint64_t> incl(n, 0), child(n, 0), calls(n, 0);

    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        for (const auto &tb : impl_->threads) {
            ThreadStat ts;
            ts.name = tb->name;
            std::vector<uint64_t> texcl(n, 0);
            for (int i = 0; i < n; ++i) {
                const uint64_t in =
                    tb->incl_ns[i].load(std::memory_order_relaxed);
                const uint64_t ch =
                    tb->child_ns[i].load(std::memory_order_relaxed);
                const uint64_t ca =
                    tb->calls[i].load(std::memory_order_relaxed);
                incl[i] += in;
                child[i] += ch;
                calls[i] += ca;
                ts.calls += ca;
                texcl[i] = in > ch ? in - ch : 0;
                ts.busy_ns += texcl[i];
            }
            for (int i = 0; i < n; ++i) {
                if (texcl[i] > ts.top_excl_ns) {
                    ts.top_excl_ns = texcl[i];
                    ts.top_phase = impl_->phase_names[i];
                }
            }
            if (ts.calls > 0)
                snap.threads.push_back(std::move(ts));
        }
    }

    std::vector<uint64_t> samples(n, 0);
    {
        std::lock_guard<std::mutex> lock(impl_->sample_mu);
        snap.total_samples = impl_->total_samples;
        for (int i = 0; i < n; ++i)
            samples[i] = impl_->leaf_samples[i];
    }

    for (int i = 0; i < n; ++i) {
        if (calls[i] == 0 && samples[i] == 0)
            continue;
        PhaseStat ps;
        ps.id = i;
        ps.name = phaseName(i);
        ps.calls = calls[i];
        ps.incl_ns = incl[i];
        ps.excl_ns = incl[i] > child[i] ? incl[i] - child[i] : 0;
        ps.samples = samples[i];
        snap.phases.push_back(std::move(ps));
    }
    std::sort(snap.phases.begin(), snap.phases.end(),
              [](const PhaseStat &a, const PhaseStat &b) {
                  if (a.excl_ns != b.excl_ns)
                      return a.excl_ns > b.excl_ns;
                  return a.name < b.name;
              });
    return snap;
}

ProfileSnapshot
ProfileRegistry::snapshot() const
{
    return buildSnapshot();
}

void
ProfileRegistry::publish()
{
    auto snap = std::make_shared<const ProfileSnapshot>(buildSnapshot());
    std::lock_guard<SpinLock> lock(impl_->board_lock);
    impl_->board = std::move(snap);
}

std::shared_ptr<const ProfileSnapshot>
ProfileRegistry::board() const
{
    std::lock_guard<SpinLock> lock(impl_->board_lock);
    return impl_->board;
}

void
ProfileRegistry::samplerLoop(uint64_t period_us)
{
    setThreadName("prof-sampler");
    // Republish the board a few times per second regardless of the
    // sampling period.
    const uint64_t publish_every_ns = 250ull * 1000 * 1000;
    uint64_t last_publish = nowNs();
    while (sampler_run_.load(std::memory_order_acquire)) {
        if (enabled()) {
            // Collect one stack walk per registered thread.  Pointer
            // list is copied under the registry mutex; the atomics
            // themselves are read relaxed (tearing between depth and
            // slots only mis-attributes a single sample).
            std::vector<ThreadBlock *> blocks;
            {
                std::lock_guard<std::mutex> lock(impl_->mu);
                blocks.reserve(impl_->threads.size());
                for (const auto &tb : impl_->threads)
                    blocks.push_back(tb.get());
            }
            std::lock_guard<std::mutex> lock(impl_->sample_mu);
            for (ThreadBlock *b : blocks) {
                int d = b->depth.load(std::memory_order_acquire);
                if (d <= 0)
                    continue;
                d = std::min(d, kMaxStackDepth);
                std::string key;
                int leaf = -1;
                for (int i = 0; i < d; ++i) {
                    const int id =
                        b->stack[i].load(std::memory_order_relaxed);
                    if (id < 0 || id >= phaseCount())
                        break;
                    if (!key.empty())
                        key.push_back(';');
                    key += phaseName(id);
                    leaf = id;
                }
                if (leaf < 0)
                    continue;
                impl_->leaf_samples[leaf]++;
                impl_->collapsed[key]++;
                impl_->total_samples++;
            }
            sampler_ticks_.fetch_add(1, std::memory_order_relaxed);
        }
        const uint64_t now = nowNs();
        if (now - last_publish >= publish_every_ns) {
            publish();
            last_publish = now;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(period_us));
    }
    publish();
}

void
ProfileRegistry::startSampler(uint64_t period_us)
{
    bool expected = false;
    if (!sampler_run_.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel))
        return;
    impl_->sampler = std::thread(
        [this, period_us]() { samplerLoop(period_us); });
}

void
ProfileRegistry::stopSampler()
{
    if (!sampler_run_.exchange(false, std::memory_order_acq_rel))
        return;
    if (impl_->sampler.joinable())
        impl_->sampler.join();
}

std::string
ProfileRegistry::toCollapsed() const
{
    std::string out;
    {
        std::lock_guard<std::mutex> lock(impl_->sample_mu);
        if (impl_->total_samples > 0) {
            out += "# collapsed stacks, value = wall-clock samples\n";
            for (const auto &[key, count] : impl_->collapsed)
                out += strformat("%s %llu\n", key.c_str(),
                                 (unsigned long long)count);
            return out;
        }
    }
    out += "# collapsed stacks, value = exclusive microseconds "
           "(timer fallback; no sampler data)\n";
    ProfileSnapshot snap = buildSnapshot();
    for (const auto &p : snap.phases) {
        if (p.excl_ns == 0)
            continue;
        std::string key = p.name;
        std::replace(key.begin(), key.end(), '/', ';');
        // Ceiling: a phase with any exclusive time keeps a nonzero
        // weight after the ns -> us conversion.
        out += strformat("%s %llu\n", key.c_str(),
                         (unsigned long long)((p.excl_ns + 999) / 1000));
    }
    return out;
}

std::string
ProfileRegistry::toText(int top_k) const
{
    std::shared_ptr<const ProfileSnapshot> published = board();
    ProfileSnapshot live;
    const ProfileSnapshot *snap = published.get();
    if (snap->phases.empty()) {
        live = buildSnapshot();
        snap = &live;
    }

    uint64_t total_excl = 0;
    for (const auto &p : snap->phases)
        total_excl += p.excl_ns;

    std::string out;
    out += strformat("profiler: %s   phases: %zu   samples: %llu\n",
                     enabled() ? "enabled" : "dark", snap->phases.size(),
                     (unsigned long long)snap->total_samples);
    out += "\n  excl_ms     incl_ms        calls  smpl  share  phase\n";
    int shown = 0;
    for (const auto &p : snap->phases) {
        if (shown++ >= top_k)
            break;
        const double share =
            total_excl > 0
                ? 100.0 * static_cast<double>(p.excl_ns) / total_excl
                : 0.0;
        out += strformat("%9.3f  %10.3f  %11llu  %4llu  %4.1f%%  %s\n",
                         toMs(p.excl_ns), toMs(p.incl_ns),
                         (unsigned long long)p.calls,
                         (unsigned long long)p.samples, share,
                         p.name.c_str());
    }
    out += "\nper-thread:\n";
    out += "  busy_ms        calls  thread        top phase\n";
    for (const auto &t : snap->threads) {
        out += strformat("%9.3f  %11llu  %-12s  %s (%.3f ms)\n",
                         toMs(t.busy_ns), (unsigned long long)t.calls,
                         t.name.c_str(), t.top_phase.c_str(),
                         toMs(t.top_excl_ns));
    }
    out += "\nflame export: GET /profilez/flame "
           "(collapsed stacks for flamegraph.pl / speedscope)\n";
    return out;
}

std::string
ProfileRegistry::toJson(int top_k) const
{
    ProfileSnapshot snap = buildSnapshot();
    uint64_t total_excl = 0;
    for (const auto &p : snap.phases)
        total_excl += p.excl_ns;

    std::string out = "{\n";
    out += strformat("      \"enabled\": %s,\n",
                     snap.enabled ? "true" : "false");
    out += strformat("      \"phase_count\": %d,\n", phaseCount());
    out += strformat("      \"total_samples\": %llu,\n",
                     (unsigned long long)snap.total_samples);
    out += strformat("      \"total_excl_ms\": %.3f,\n", toMs(total_excl));
    out += "      \"top\": [";
    int shown = 0;
    for (const auto &p : snap.phases) {
        if (shown >= top_k)
            break;
        out += strformat(
            "%s\n        {\"phase\": \"%s\", \"calls\": %llu, "
            "\"incl_ms\": %.3f, \"excl_ms\": %.3f, \"samples\": %llu, "
            "\"share_pct\": %.2f}",
            shown ? "," : "", jsonEscape(p.name).c_str(),
            (unsigned long long)p.calls, toMs(p.incl_ns), toMs(p.excl_ns),
            (unsigned long long)p.samples,
            total_excl > 0
                ? 100.0 * static_cast<double>(p.excl_ns) / total_excl
                : 0.0);
        ++shown;
    }
    out += shown ? "\n      ]\n    }" : "]\n    }";
    return out;
}

void
ProfileRegistry::exportGauges(MetricsRegistry &registry, int top_k) const
{
    ProfileSnapshot snap = buildSnapshot();
    uint64_t total_excl = 0;
    for (const auto &p : snap.phases)
        total_excl += p.excl_ns;
    registry.setGauge("profile.enabled", snap.enabled ? 1.0 : 0.0);
    registry.setGauge("profile.total_excl_ms", toMs(total_excl));
    registry.setGauge("profile.total_samples",
                      static_cast<double>(snap.total_samples));
    int shown = 0;
    for (const auto &p : snap.phases) {
        if (shown++ >= top_k)
            break;
        std::string key = p.name;
        std::replace(key.begin(), key.end(), '/', '.');
        registry.setGauge("profile." + key + ".excl_ms", toMs(p.excl_ns));
        registry.setGauge("profile." + key + ".calls",
                          static_cast<double>(p.calls));
    }
}

void
ProfileRegistry::reset()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        for (const auto &tb : impl_->threads) {
            for (int i = 0; i < kMaxPhases; ++i) {
                tb->incl_ns[i].store(0, std::memory_order_relaxed);
                tb->child_ns[i].store(0, std::memory_order_relaxed);
                tb->calls[i].store(0, std::memory_order_relaxed);
            }
        }
    }
    {
        std::lock_guard<std::mutex> lock(impl_->sample_mu);
        std::memset(impl_->leaf_samples, 0, sizeof(impl_->leaf_samples));
        impl_->collapsed.clear();
        impl_->total_samples = 0;
    }
    {
        auto empty = std::make_shared<const ProfileSnapshot>();
        std::lock_guard<SpinLock> lock(impl_->board_lock);
        impl_->board = std::move(empty);
    }
}

}  // namespace wsva::prof
