/**
 * @file
 * The benchmark's own tests: the percentile sample floor, op-failure
 * accounting, and a smoke-size run of every workload (both the
 * end-to-end and the traced pass) that must be correct, report every
 * metric, and repeat its fingerprint exactly for a seed.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "workloads.h"

namespace e2e {
namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

TEST(Percentiles, MedianOfOddAndEvenCounts)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Percentiles, P90WithheldBelowTenSamplesBeyondIt)
{
    // 99 samples: rank 90, only 9 beyond it.
    EXPECT_FALSE(tailQuantile(oneTo(99), 0.9).has_value());
    // 100 samples: rank 90, exactly 10 beyond it.
    const auto p90 = tailQuantile(oneTo(100), 0.9);
    ASSERT_TRUE(p90.has_value());
    EXPECT_EQ(*p90, 90.0);
    EXPECT_EQ(*tailQuantile(oneTo(1000), 0.9), 900.0);
}

TEST(Percentiles, EndToEndMarksWithheldP90Incorrect)
{
    LoopResult loop;
    loop.ms = oneTo(50);
    loop.steps = 50;
    loop.op_seconds = 1.0;
    RunResult r;
    addEndToEnd(r, RoundsResult{loop, {1.0, 2.0, 3.0}});
    EXPECT_FALSE(r.correct);
    EXPECT_EQ(r.metrics.count("op_p90_ms"), 0u);
    EXPECT_EQ(r.metrics.at("setup_s").value, 2.0);
    EXPECT_EQ(r.metrics.at("op_p50_ms").value, 25.5);
    EXPECT_EQ(r.metrics.at("steps_per_s").value, 50.0);
}

wsva::platform::TranscodeResult
fakeUpload()
{
    wsva::platform::TranscodeResult r;
    r.variants.resize(2);
    for (auto &v : r.variants) {
        v.chunks.resize(2);
        for (auto &c : v.chunks)
            c.bytes = {1, 2, 3, 4};
    }
    return r;
}

TEST(OpFailures, FlippedOutputByteFailsTheUpload)
{
    UploadChecker checker(1);
    EXPECT_TRUE(checker.check(0, fakeUpload())); // becomes the reference
    EXPECT_TRUE(checker.check(0, fakeUpload()));
    auto flipped = fakeUpload();
    flipped.variants[1].chunks[0].bytes[2] ^= 0x01;
    EXPECT_FALSE(checker.check(0, flipped));
    auto broken = fakeUpload();
    broken.integrity_ok = false;
    EXPECT_FALSE(checker.check(0, broken));
}

TEST(OpFailures, LoopCountsFailedOps)
{
    const LoopResult loop = runLoop(0.0, 10, 10, [](size_t i) {
        OpSample s;
        s.ms = 1.0;
        s.ok = i != 3 && i != 7;
        s.steps = 2;
        return s;
    });
    EXPECT_EQ(loop.ms.size(), 10u);
    EXPECT_EQ(loop.failed, 2u);
    EXPECT_EQ(loop.steps, 20u);
}

TEST(OpFailures, TracedRunNumbersOpsAcrossArmsAndCountsFailures)
{
    RunArgs args;
    args.trace = true;
    args.seconds = 1e-6; // The traced arm is the window alone.
    RunResult result;
    TraceArm arm;
    bool have_window = false;
    std::vector<size_t> seen;
    size_t per_layer_ops = 0;
    Workload w;
    w.window_ops = 3;
    w.setup = [](int) {};
    w.op = [&](size_t i) {
        seen.push_back(i);
        if (i + 1 == w.window_ops)
            recordWindow(result, have_window, {{"x", 1.0}}, 1);
        OpSample s;
        s.ok = i != 4;
        return s;
    };
    w.per_layer = [&](RunResult &, const TracedPass &pass) {
        per_layer_ops = pass.ops;
    };
    runWorkload(args, arm, w, result);
    EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(per_layer_ops, 3u);
    EXPECT_EQ(result.attempted, 6u);
    EXPECT_EQ(result.failed, 1u);
    EXPECT_FALSE(result.correct);
    EXPECT_EQ(result.metrics.count("bench.trace_overhead_frac"), 1u);
}

std::set<std::string>
keys(const RunResult &r)
{
    std::set<std::string> out;
    for (const auto &[name, m] : r.metrics)
        out.insert(name);
    return out;
}

const std::set<std::string> kEndToEnd = {
    "setup_s", "op_p50_ms", "op_p90_ms", "steps_per_s", "peak_rss_mb"};

std::set<std::string>
perLayerNames()
{
    std::set<std::string> out;
    for (const auto &[name, unit] : perLayerMetrics())
        out.insert(name);
    return out;
}

/** Both passes of one workload at smoke size: correct, every metric
 *  reported, and the same fingerprint from both. */
template <typename Run>
void
smoke(const char *workload, Run run)
{
    RunArgs args;
    args.workload = workload;
    args.seed = 7;
    args.seconds = 0.05;
    const RunResult plain = run(args);
    EXPECT_TRUE(plain.correct) << (plain.errors.empty() ? ""
                                                        : plain.errors[0]);
    EXPECT_GE(plain.attempted, kMinTimedOps);
    EXPECT_EQ(plain.failed, 0u);
    EXPECT_EQ(keys(plain), kEndToEnd);
    for (const auto &[name, m] : plain.metrics)
        EXPECT_GT(m.value, 0.0) << name;

    args.trace = true;
    const RunResult traced = run(args);
    EXPECT_TRUE(traced.correct) << (traced.errors.empty()
                                        ? ""
                                        : traced.errors[0]);
    EXPECT_EQ(traced.failed, 0u);
    EXPECT_EQ(keys(traced), perLayerNames());
    EXPECT_EQ(traced.digest, plain.digest);
    for (const auto &[name, value] : plain.fingerprint)
        EXPECT_EQ(traced.fingerprint.at(name), value) << name;
}

TEST(Smoke, UploadLadder)
{
    UploadLadderSize size;
    size.width = 64;
    size.frames = 4;
    size.chunk_frames = 2;
    size.rungs = 2;
    size.rounds = 2;
    smoke("upload_ladder",
          [&](const RunArgs &a) { return runUploadLadder(a, size); });
}

TEST(Smoke, FleetGlobal)
{
    FleetGlobalSize size;
    size.regions = 4;
    size.hosts_per_region = 25;
    size.uploads_per_second = 2.0;
    size.warmup_seconds = 20.0;
    size.settle_seconds = 30.0;
    size.rounds = 2;
    size.window_ops = 5;
    smoke("fleet_global",
          [&](const RunArgs &a) { return runFleetGlobal(a, size); });
}

TEST(Smoke, ClusterObserved)
{
    ClusterObservedSize size;
    size.hosts = 20;
    size.uploads_per_second = 0.5;
    size.live_streams = 5;
    size.warmup_seconds = 20.0;
    size.rounds = 2;
    size.window_ops = 5;
    smoke("cluster_observed",
          [&](const RunArgs &a) { return runClusterObserved(a, size); });
}

} // namespace
} // namespace e2e
