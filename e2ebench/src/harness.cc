#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/build_info.h"

namespace e2e {

void
RunResult::fail(const std::string &why)
{
    correct = false;
    errors.push_back(why);
}

void
RunResult::set(const std::string &name, double value, const char *unit)
{
    metrics[name] = Metric{value, unit};
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double>
tailQuantile(std::vector<double> values, double q, size_t min_beyond)
{
    const size_t n = values.size();
    if (n == 0)
        return std::nullopt;
    // Nearest rank, 1-based: the smallest rank covering q of the
    // samples.
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * static_cast<double>(n))));
    if (n - rank < min_beyond)
        return std::nullopt;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<long>(rank - 1),
                     values.end());
    return values[rank - 1];
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

uint64_t
fnv1a(const void *data, size_t size, uint64_t h)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
fnvMix(uint64_t h, uint64_t value)
{
    return fnv1a(&value, sizeof(value), h);
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 over (seed, stream): neighbouring seeds give
    // unrelated streams.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
LoopResult::append(const LoopResult &other)
{
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    steps += other.steps;
    failed += other.failed;
    op_seconds += other.op_seconds;
}

LoopResult
runLoop(double seconds, size_t min_ops, size_t max_ops,
        const std::function<OpSample(size_t)> &op, size_t granule)
{
    LoopResult loop;
    const double start = nowSeconds();
    for (size_t i = 0;; ++i) {
        if (max_ops > 0 && i >= max_ops)
            break;
        if (i >= min_ops && i % granule == 0) {
            // Stop here unless the next granule boundary lies nearer
            // to the target than this one.
            const double elapsed = nowSeconds() - start;
            const double per_granule =
                i > 0 ? elapsed * static_cast<double>(granule) /
                            static_cast<double>(i)
                      : 0.0;
            if (elapsed + per_granule / 2 >= seconds)
                break;
        }
        const OpSample s = op(i);
        loop.ms.push_back(s.ms);
        loop.steps += s.steps;
        loop.failed += s.ok ? 0 : 1;
        loop.op_seconds += s.ms / 1e3;
    }
    return loop;
}

RoundsResult
runRounds(int rounds, double seconds, size_t min_ops_per_round,
          const std::function<void(int)> &setup,
          const std::function<OpSample(size_t)> &op, size_t granule)
{
    RoundsResult run;
    for (int r = 0; r < rounds; ++r) {
        const double t0 = nowSeconds();
        setup(r);
        run.setup_seconds.push_back(nowSeconds() - t0);
        run.loop.append(
            runLoop(seconds / rounds, min_ops_per_round, 0, op, granule));
    }
    return run;
}

void
recordWindow(RunResult &result, bool &have_window,
             std::map<std::string, double> fingerprint, uint64_t digest)
{
    if (!have_window) {
        result.fingerprint = std::move(fingerprint);
        result.digest = digest;
        have_window = true;
    } else if (digest != result.digest ||
               fingerprint != result.fingerprint) {
        result.fail("a round repeated the fingerprint window with "
                    "different outputs");
    }
}

void
addEndToEnd(RunResult &result, const RoundsResult &run)
{
    const LoopResult &loop = run.loop;
    result.set("setup_s", median(run.setup_seconds), "s");
    result.set("op_p50_ms", median(loop.ms), "ms");
    if (const auto p90 = tailQuantile(loop.ms, 0.9)) {
        result.set("op_p90_ms", *p90, "ms");
    } else {
        result.fail("op_p90_ms withheld: fewer than 10 ops beyond p90 in " +
                    std::to_string(loop.ms.size()) + " ops");
    }
    result.set("steps_per_s",
               loop.op_seconds > 0.0
                   ? static_cast<double>(loop.steps) / loop.op_seconds
                   : 0.0,
               "1/s");
    result.set("peak_rss_mb", peakRssMb(), "MB");
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kMetrics =
        {
            {"bench.trace_overhead_frac", "ratio"},
            // video/codec
            {"codec.first_pass_ms", "ms"},
            {"codec.encode_ms", "ms"},
            {"codec.decode_ms", "ms"},
            {"codec.dct_quant_ms", "ms"},
            {"codec.motion_search_ms", "ms"},
            {"codec.dct_quant_calls", "count"},
            {"codec.motion_search_calls", "count"},
            {"codec.out_bytes", "bytes"},
            {"psnr_db", "dB"},
            {"kbps", "kbit/s"},
            // video scaler
            {"video.scale_ms", "ms"},
            {"video.interpolate_ms", "ms"},
            // platform
            {"platform.jobs", "count"},
            {"platform.job_p50_ms", "ms"},
            {"platform.job_p90_ms", "ms"},
            // workload generators
            {"workload.gen_ms", "ms"},
            // cluster event core and dispatch
            {"cluster.events", "count"},
            {"cluster.ns_per_event", "ns"},
            {"cluster.run_ms", "ms"},
            {"cluster.dispatch_ms", "ms"},
            {"cluster.index_ms", "ms"},
            {"cluster.index_probes", "count"},
            {"cluster.worker_done_ms", "ms"},
            {"cluster.placed", "count"},
            {"cluster.rejected", "count"},
            {"cluster.place_ratio", "ratio"},
            {"cluster.retries", "count"},
            {"sim_availability", "fraction"},
            {"sim_retry_amp", "ratio"},
            // cluster telemetry + common metrics and trace
            {"cluster.publish_ms", "ms"},
            {"cluster.slo_eval_ms", "ms"},
            {"common.trace_spans", "count"},
            {"common.obs_overhead_frac", "ratio"},
            {"cluster.edf_completions", "count"},
            {"cluster.shed", "count"},
            {"sim_upload_p99_s", "sim_s"},
            {"sim_deadline_miss_rate", "fraction"},
            // global router
            {"global.route_ms", "ms"},
            {"global.health_ms", "ms"},
            {"global.rerouted", "count"},
            {"global.expelled", "count"},
            {"global.quarantine_entries", "count"},
        };
    return kMetrics;
}

void
addPerLayerTemplate(RunResult &result)
{
    for (const auto &[name, unit] : perLayerMetrics())
        result.metrics[name] = Metric{0.0, unit};
}

void
copyFingerprintToMetrics(RunResult &result)
{
    for (const auto &[name, value] : result.fingerprint) {
        auto it = result.metrics.find(name);
        if (it != result.metrics.end())
            it->second.value = value;
    }
}

TraceArm::TraceArm() : tracer_(1 << 18)
{
    tracer_.setEnabled(false);
}

TraceArm::~TraceArm()
{
    stop();
}

void
TraceArm::start()
{
    auto &prof = wsva::prof::ProfileRegistry::instance();
    prof.stopSampler();
    prof.reset();
    prof.setEnabled(true);
    tracer_.clear();
    tracer_.setEnabled(true);
    active_ = true;
}

void
TraceArm::stop()
{
    wsva::prof::ProfileRegistry::instance().setEnabled(false);
    tracer_.setEnabled(false);
    active_ = false;
}

wsva::prof::ProfileSnapshot
TraceArm::profile() const
{
    return wsva::prof::ProfileRegistry::instance().snapshot();
}

std::vector<double>
TraceArm::spanDurationsMs(const char *name) const
{
    std::vector<double> out;
    for (const auto &s : tracer_.snapshot()) {
        if (!s.instant && std::strcmp(s.name, name) == 0)
            out.push_back((s.end_us - s.begin_us) / 1e3);
    }
    return out;
}

double
TraceArm::spanTotalMs(const char *name) const
{
    double total = 0.0;
    for (double ms : spanDurationsMs(name))
        total += ms;
    return total;
}

bool
TraceArm::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << tracer_.exportChromeTrace();
    out.close();
    return static_cast<bool>(out);
}

PhaseTotals
phase(const wsva::prof::ProfileSnapshot &snap, const std::string &name)
{
    for (const auto &p : snap.phases) {
        if (p.name == name) {
            return PhaseTotals{static_cast<double>(p.incl_ns) / 1e6,
                               static_cast<double>(p.excl_ns) / 1e6,
                               p.calls};
        }
    }
    return {};
}

uint64_t
phaseCallsWithPrefix(const wsva::prof::ProfileSnapshot &snap,
                     const std::string &prefix)
{
    uint64_t calls = 0;
    for (const auto &p : snap.phases) {
        if (p.name.rfind(prefix, 0) == 0)
            calls += p.calls;
    }
    return calls;
}

LayerCall::LayerCall(wsva::Tracer *tracer, const char *name,
                     int prof_phase)
    : span_(tracer, name, "bench"), prof_(prof_phase)
{
}

void
runWorkload(const RunArgs &args, TraceArm &arm, const Workload &w,
            RunResult &result)
{
    if (!args.trace) {
        // kMinTimedOps in all, the whole window in every round, and
        // whole granules.
        const size_t rounds = static_cast<size_t>(w.rounds);
        size_t per_round =
            std::max(w.window_ops, (kMinTimedOps + rounds - 1) / rounds);
        per_round = (per_round + w.granule - 1) / w.granule * w.granule;
        const RoundsResult run = runRounds(w.rounds, args.seconds, per_round,
                                           w.setup, w.op, w.granule);
        result.attempted = run.loop.ms.size();
        result.failed = run.loop.failed;
        addEndToEnd(result, run);
        if (result.fingerprint.empty())
            result.fail("fingerprint window incomplete");
    } else {
        w.setup(0);
        arm.start();
        const double t0 = nowSeconds();
        TracedPass pass;
        LoopResult traced = runLoop(0.0, w.window_ops, w.window_ops, w.op);
        pass.window_profile = arm.profile();
        const size_t window = traced.ms.size();
        traced.append(runLoop(
            args.seconds * w.traced_share - (nowSeconds() - t0), 0, 0,
            [&](size_t i) { return w.op(window + i); }, w.granule));
        pass.profile = arm.profile();
        arm.stop();
        pass.ops = traced.ms.size();
        pass.op_seconds = traced.op_seconds;
        const LoopResult plain =
            runLoop(0.0, pass.ops, pass.ops,
                    [&](size_t i) { return w.op(pass.ops + i); });
        result.attempted = traced.ms.size() + plain.ms.size();
        result.failed = traced.failed + plain.failed;
        if (result.fingerprint.empty())
            result.fail("fingerprint window incomplete");

        addPerLayerTemplate(result);
        result.set("bench.trace_overhead_frac",
                   traced.op_seconds / plain.op_seconds - 1.0, "ratio");
        w.per_layer(result, pass);
        if (!args.trace_out.empty() &&
            !arm.writeChromeTrace(args.trace_out))
            result.fail("could not write " + args.trace_out);
        copyFingerprintToMetrics(result);
    }
    if (result.failed > 0)
        result.fail(std::to_string(result.failed) +
                    " ops failed their checks");
}

void
addEventCoreLayer(RunResult &result, const TraceArm &arm,
                  const TracedPass &pass, double run_ms)
{
    const double n = static_cast<double>(pass.ops);
    const uint64_t events = phaseCallsWithPrefix(pass.profile, "event/");
    result.set("workload.gen_ms", arm.spanTotalMs("arrivals") / n, "ms");
    result.set("cluster.run_ms", run_ms / n, "ms");
    result.set("cluster.ns_per_event",
               events > 0 ? run_ms * 1e6 / static_cast<double>(events) : 0.0,
               "ns");
    result.set("cluster.dispatch_ms",
               phase(pass.profile, "cluster/dispatch").excl_ms / n, "ms");
    result.set("cluster.index_ms",
               phase(pass.profile, "cluster/dispatch/index").incl_ms / n,
               "ms");
    result.set("cluster.worker_done_ms",
               phase(pass.profile, "event/worker_done").excl_ms / n, "ms");
    result.fingerprint["cluster.index_probes"] = static_cast<double>(
        phase(pass.window_profile, "cluster/dispatch/index").calls);
}

namespace {

/** Shortest decimal that round-trips @p v (JSON has no inf/nan). */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
cpuModel()
{
    unsigned int regs[12] = {};
    unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf < 0x80000004u)
        return "unknown";
    for (unsigned int i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

int
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

} // namespace

std::string
machineJson(const std::string &git_commit, const std::string &src_digest)
{
    __builtin_cpu_init();
    std::string out = "{\"machine\": {";
    out += "\"nproc\": " + std::to_string(onlineCpus());
    out += ", \"cpu_model\": " + quoted(cpuModel());
    out += std::string(", \"avx2\": ") +
           (__builtin_cpu_supports("avx2") ? "true" : "false");
    out += std::string(", \"avx512f\": ") +
           (__builtin_cpu_supports("avx512f") ? "true" : "false");
    out += ", \"build_type\": " + quoted(wsva::buildType());
    out += std::string(", \"native_arch\": ") +
           (wsva::buildNativeArch() ? "true" : "false");
    out += ", \"compiler\": " + quoted(std::string("g++ ") + __VERSION__);
    out += ", \"git_commit\": " + quoted(git_commit);
    out += ", \"src_digest\": " + quoted(src_digest);
    out += "}}";
    return out;
}

std::string
resultJson(const RunResult &result)
{
    std::string out = "{\"correct\": ";
    out += result.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(result.attempted);
    out += ", \"failed\": " + std::to_string(result.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : result.metrics) {
        out += first ? "" : ", ";
        first = false;
        out += quoted(name) + ": {\"value\": " + number(m.value) +
               ", \"unit\": " + quoted(m.unit) + "}";
    }
    out += "}}";
    return out;
}

std::string
fingerprintJson(const RunArgs &args, const RunResult &result)
{
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(result.digest));
    std::string out = "{\"fingerprint\": {\"workload\": " +
                      quoted(args.workload) +
                      ", \"seed\": " + std::to_string(args.seed) +
                      ", \"digest\": \"" + digest + "\"";
    for (const auto &[name, value] : result.fingerprint)
        out += ", " + quoted(name) + ": " + number(value);
    out += "}";
    if (!result.errors.empty()) {
        out += ", \"errors\": [";
        for (size_t i = 0; i < result.errors.size(); ++i)
            out += (i ? ", " : "") + quoted(result.errors[i]);
        out += "]";
    }
    out += "}";
    return out;
}

} // namespace e2e
