/**
 * @file
 * Unit tests for wsva::prof: dark-mode no-ops, inclusive/exclusive
 * accounting across nested scopes, phase interning, multi-threaded
 * accumulation, manual addTime attribution, the wall-clock sampler,
 * collapsed-stack export, and the double-buffered snapshot board.
 *
 * The profiler is a process-global singleton, so every test begins by
 * stopping the sampler, disabling recording, and resetting counters.
 */

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/profiler.h"

using namespace wsva;
using prof::ProfileRegistry;
using prof::ProfScope;

namespace {

ProfileRegistry &
freshRegistry()
{
    ProfileRegistry &reg = ProfileRegistry::instance();
    reg.stopSampler();
    reg.setEnabled(false);
    reg.reset();
    return reg;
}

/** Burn a little real time so scope durations are nonzero. */
void
spin(uint64_t ns)
{
    const uint64_t start = prof::nowNs();
    while (prof::nowNs() - start < ns) {
    }
}

const prof::PhaseStat *
findPhase(const prof::ProfileSnapshot &snap, const std::string &name)
{
    for (const auto &p : snap.phases) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

TEST(ProfileRegistry, InternIsIdempotentAndNamesRoundTrip)
{
    ProfileRegistry &reg = freshRegistry();
    const int a = reg.intern("test/intern/a");
    const int b = reg.intern("test/intern/b");
    EXPECT_GE(a, 0);
    EXPECT_GE(b, 0);
    EXPECT_NE(a, b);
    EXPECT_EQ(reg.intern("test/intern/a"), a);
    EXPECT_EQ(reg.phaseName(a), "test/intern/a");
    EXPECT_EQ(reg.phaseName(b), "test/intern/b");
    EXPECT_EQ(reg.phaseName(-1), "");
    EXPECT_EQ(reg.phaseName(prof::kMaxPhases + 1), "");
    EXPECT_EQ(reg.intern(""), -1);
    EXPECT_EQ(reg.intern(nullptr), -1);
}

TEST(Profiler, DarkModeRecordsNothing)
{
    ProfileRegistry &reg = freshRegistry();
    const int phase = reg.intern("test/dark");
    {
        ProfScope scope(phase);
        spin(20'000);
    }
    const auto snap = reg.snapshot();
    EXPECT_FALSE(snap.enabled);
    EXPECT_EQ(findPhase(snap, "test/dark"), nullptr);
}

TEST(Profiler, InvalidPhaseIdIsSilentNoOp)
{
    ProfileRegistry &reg = freshRegistry();
    reg.setEnabled(true);
    {
        ProfScope scope(-1);
        prof::addTime(-1, 1000);
        prof::addTime(prof::kMaxPhases, 1000);
    }
    reg.setEnabled(false);
    SUCCEED();
}

TEST(Profiler, SampledScopeCountsExactlyAndScalesTime)
{
    ProfileRegistry &reg = freshRegistry();
    const int phase = reg.intern("test/sampled");
    reg.setEnabled(true);
    constexpr int kCalls = 64;
    constexpr uint32_t kPeriod = 16;
    for (int i = 0; i < kCalls; ++i) {
        prof::ProfScopeSampled scope(phase, kPeriod);
        spin(50'000);
    }
    reg.setEnabled(false);

    const auto snap = reg.snapshot();
    const auto *p = findPhase(snap, "test/sampled");
    ASSERT_NE(p, nullptr);
    // Every call is counted, timed or not.
    EXPECT_EQ(p->calls, static_cast<uint64_t>(kCalls));
    // 64/16 = 4 timed calls, each credited x16: the scaled total
    // approximates all 64 spins (>= the 4 measured ones unscaled).
    EXPECT_GE(p->incl_ns, 4u * 50'000u);
    EXPECT_EQ(p->incl_ns, p->excl_ns);

    // Dark mode: sampled scopes are the same single-branch no-op.
    reg.reset();
    {
        prof::ProfScopeSampled scope(phase, kPeriod);
        spin(20'000);
    }
    EXPECT_EQ(findPhase(reg.snapshot(), "test/sampled"), nullptr);
}

TEST(Profiler, NestedScopesSplitInclusiveAndExclusive)
{
    ProfileRegistry &reg = freshRegistry();
    const int outer = reg.intern("test/outer");
    const int inner = reg.intern("test/outer/inner");
    reg.setEnabled(true);
    {
        ProfScope o(outer);
        spin(2'000'000);
        {
            ProfScope i(inner);
            spin(2'000'000);
        }
    }
    reg.setEnabled(false);

    const auto snap = reg.snapshot();
    const auto *po = findPhase(snap, "test/outer");
    const auto *pi = findPhase(snap, "test/outer/inner");
    ASSERT_NE(po, nullptr);
    ASSERT_NE(pi, nullptr);
    EXPECT_EQ(po->calls, 1u);
    EXPECT_EQ(pi->calls, 1u);
    // Outer's inclusive time covers inner; its exclusive time does
    // not (exclusive = inclusive - runtime-child time).
    EXPECT_GE(po->incl_ns, pi->incl_ns);
    EXPECT_EQ(po->excl_ns, po->incl_ns - pi->incl_ns);
    // Leaf phase: exclusive == inclusive.
    EXPECT_EQ(pi->excl_ns, pi->incl_ns);
    EXPECT_GE(pi->incl_ns, 1'500'000u);
    EXPECT_GE(po->excl_ns, 1'500'000u);
}

TEST(Profiler, AddTimeCreditsPhaseAndRuntimeParent)
{
    ProfileRegistry &reg = freshRegistry();
    const int outer = reg.intern("test/at_outer");
    const int manual = reg.intern("test/at_outer/manual");
    reg.setEnabled(true);
    {
        ProfScope o(outer);
        spin(500'000);
        prof::addTime(manual, 123'456, 7);
    }
    reg.setEnabled(false);

    const auto snap = reg.snapshot();
    const auto *po = findPhase(snap, "test/at_outer");
    const auto *pm = findPhase(snap, "test/at_outer/manual");
    ASSERT_NE(po, nullptr);
    ASSERT_NE(pm, nullptr);
    EXPECT_EQ(pm->incl_ns, 123'456u);
    EXPECT_EQ(pm->calls, 7u);
    // The manual time is subtracted from the enclosing scope's
    // exclusive share exactly like a nested ProfScope.
    EXPECT_EQ(po->excl_ns, po->incl_ns - 123'456u);
}

TEST(ProfileRegistry, ThreadedAccumulationSumsAcrossThreads)
{
    ProfileRegistry &reg = freshRegistry();
    const int phase = reg.intern("test/threads");
    reg.setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kIters = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([phase] {
            for (int i = 0; i < kIters; ++i)
                ProfScope scope(phase);
        });
    }
    for (auto &t : threads)
        t.join();
    reg.setEnabled(false);

    const auto snap = reg.snapshot();
    const auto *p = findPhase(snap, "test/threads");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->calls, static_cast<uint64_t>(kThreads) * kIters);
}

TEST(ProfileRegistry, SamplerAttributesWallClockSamples)
{
    ProfileRegistry &reg = freshRegistry();
    const int phase = reg.intern("test/sampler/hot");
    reg.setEnabled(true);
    reg.startSampler(/*period_us=*/500);
    {
        ProfScope scope(phase);
        // Long enough for dozens of 0.5ms sampler periods.
        spin(60'000'000);
    }
    reg.stopSampler();
    reg.setEnabled(false);

    const auto snap = reg.snapshot();
    const auto *p = findPhase(snap, "test/sampler/hot");
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->samples, 0u);
    EXPECT_GT(snap.total_samples, 0u);
    EXPECT_GT(reg.samplerTicks(), 0u);

    // Sampler data flows into the collapsed-stack export, keyed by
    // the stack path with ';' separators.
    const std::string collapsed = reg.toCollapsed();
    EXPECT_NE(collapsed.find("test/sampler/hot "), std::string::npos);
}

TEST(ProfileRegistry, SamplerSeesUntimedSampledCalls)
{
    // A per-block kernel: many short calls under a period-16 sampled
    // scope, so 15 of every 16 calls skip the clocks. The sampler must
    // still find the phase on the stack for (nearly) all of their wall
    // time, not just during the timed 1/16.
    ProfileRegistry &reg = freshRegistry();
    const int outer = reg.intern("test/sampled_leaf");
    const int hot = reg.intern("test/sampled_leaf/kernel");
    reg.setEnabled(true);
    reg.startSampler(/*period_us=*/200);
    {
        ProfScope o(outer);
        const uint64_t start = prof::nowNs();
        while (prof::nowNs() - start < 60'000'000) {
            prof::ProfScopeSampled scope(hot, 16);
            spin(20'000);
        }
    }
    reg.stopSampler();
    reg.setEnabled(false);

    const auto snap = reg.snapshot();
    const auto *p = findPhase(snap, "test/sampled_leaf/kernel");
    ASSERT_NE(p, nullptr);
    ASSERT_GT(snap.total_samples, 20u);
    EXPECT_GT(2 * p->samples, snap.total_samples)
        << p->samples << " of " << snap.total_samples << " leaf samples";
    EXPECT_NE(reg.toCollapsed().find("test/sampled_leaf;test/sampled_leaf/"
                                     "kernel "),
              std::string::npos);
}

TEST(ProfileRegistry, CollapsedFallsBackToTimersWithoutSampler)
{
    ProfileRegistry &reg = freshRegistry();
    const int outer = reg.intern("test/flame");
    const int inner = reg.intern("test/flame/leaf");
    reg.setEnabled(true);
    {
        ProfScope o(outer);
        ProfScope i(inner);
        spin(2'000'000);
    }
    reg.setEnabled(false);

    const std::string collapsed = reg.toCollapsed();
    EXPECT_NE(collapsed.find("timer fallback"), std::string::npos);
    // Static paths become semicolon-joined frames.
    EXPECT_NE(collapsed.find("test;flame;leaf "), std::string::npos);
    // Every non-comment line is "frames value".
    size_t pos = 0;
    while (pos < collapsed.size()) {
        size_t eol = collapsed.find('\n', pos);
        if (eol == std::string::npos)
            eol = collapsed.size();
        const std::string line = collapsed.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    }
}

TEST(ProfileRegistry, PublishSwapsDoubleBufferedBoard)
{
    ProfileRegistry &reg = freshRegistry();
    const int phase = reg.intern("test/board");
    // Board is empty (but never null) after reset.
    auto before = reg.board();
    ASSERT_NE(before, nullptr);
    EXPECT_TRUE(before->phases.empty());

    reg.setEnabled(true);
    {
        ProfScope scope(phase);
        spin(1'000'000);
    }
    reg.publish();
    reg.setEnabled(false);

    auto after = reg.board();
    ASSERT_NE(after, nullptr);
    EXPECT_NE(after, before);
    EXPECT_NE(findPhase(*after, "test/board"), nullptr);
    // The old snapshot a reader may still hold is untouched.
    EXPECT_TRUE(before->phases.empty());
}

TEST(ProfileRegistry, TextJsonAndGaugeExports)
{
    ProfileRegistry &reg = freshRegistry();
    const int phase = reg.intern("test/export/phase");
    reg.setEnabled(true);
    {
        ProfScope scope(phase);
        spin(2'000'000);
    }
    reg.publish();

    const std::string text = reg.toText();
    EXPECT_NE(text.find("test/export/phase"), std::string::npos);
    EXPECT_NE(text.find("per-thread:"), std::string::npos);

    const std::string json = reg.toJson();
    EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
    EXPECT_NE(json.find("\"phase\": \"test/export/phase\""),
              std::string::npos);
    EXPECT_NE(json.find("\"share_pct\""), std::string::npos);

    MetricsRegistry metrics;
    reg.exportGauges(metrics);
    EXPECT_EQ(metrics.gauge("profile.enabled"), 1.0);
    EXPECT_GT(metrics.gauge("profile.test.export.phase.excl_ms"), 0.0);
    EXPECT_EQ(metrics.gauge("profile.test.export.phase.calls"), 1.0);
    EXPECT_GT(metrics.gauge("profile.total_excl_ms"), 0.0);
    reg.setEnabled(false);
}

TEST(ProfileRegistry, ResetZeroesEverything)
{
    ProfileRegistry &reg = freshRegistry();
    const int phase = reg.intern("test/reset");
    reg.setEnabled(true);
    {
        ProfScope scope(phase);
        spin(500'000);
    }
    reg.publish();
    reg.reset();
    reg.setEnabled(false);

    const auto snap = reg.snapshot();
    EXPECT_EQ(findPhase(snap, "test/reset"), nullptr);
    EXPECT_EQ(snap.total_samples, 0u);
    EXPECT_TRUE(reg.board()->phases.empty());
    // Interning survives reset.
    EXPECT_EQ(reg.intern("test/reset"), phase);
}

TEST(ProfileRegistry, ScrapeVsRecordHammer)
{
    // Aggregators (snapshot/publish/text/collapsed) race the
    // recording hot path on purpose; everything the scrapers read is
    // either atomic or behind the registry locks, so under TSan this
    // must be silent.
    ProfileRegistry &reg = freshRegistry();
    const int outer = reg.intern("test/hammer");
    const int inner = reg.intern("test/hammer/leaf");
    reg.setEnabled(true);
    reg.startSampler(/*period_us=*/200);

    std::atomic<bool> stop{false};
    std::vector<std::thread> recorders;
    for (int t = 0; t < 2; ++t) {
        recorders.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                ProfScope o(outer);
                ProfScope i(inner);
                spin(5'000);
            }
        });
    }
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 2; ++t) {
        scrapers.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                (void)reg.snapshot();
                (void)reg.toText();
                (void)reg.toCollapsed();
                (void)reg.board();
                reg.publish();
            }
        });
    }
    for (auto &t : scrapers)
        t.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto &t : recorders)
        t.join();
    reg.stopSampler();
    reg.setEnabled(false);

    const auto snap = reg.snapshot();
    const auto *p = findPhase(snap, "test/hammer");
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->calls, 0u);
}

} // namespace
