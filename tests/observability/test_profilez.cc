/**
 * @file
 * /profilez surface tests: the z-page and its flame export served
 * from a live sim, the build-info stamp on /varz and /healthz,
 * exportJson's "profile"/"build" blocks (schema 5), a scrape-vs-
 * record hammer mirroring the PR 5 DebugServer hammers (TSan
 * acceptance), and the profiler on/off determinism proof — enabling
 * continuous profiling must leave the sim ledger and RNG streams
 * byte-identical.
 */

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/debug_server.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "support/http_client.h"
#include "support/ledger_fingerprint.h"
#include "support/mini_json.h"

using namespace wsva;
using namespace wsva::cluster;
using prof::ProfileRegistry;
using wsva::testsupport::httpGet;
using wsva::testsupport::ledgerFingerprint;
using wsva::testsupport::parseJson;

namespace {

ProfileRegistry &
freshProfiler()
{
    ProfileRegistry &reg = ProfileRegistry::instance();
    reg.stopSampler();
    reg.setEnabled(false);
    reg.reset();
    return reg;
}

ClusterConfig
demoConfig()
{
    ClusterConfig cfg;
    cfg.hosts = 4;
    cfg.vcus_per_host = 5;
    cfg.hosts_per_rack = 2;
    cfg.seed = 7;
    cfg.vcu_hard_fault_per_hour = 30.0;
    cfg.vcu_silent_fault_per_hour = 15.0;
    cfg.failure.host_fault_threshold = 3;
    cfg.failure.repair_seconds = 150.0;
    cfg.failure.repair_cap = 1;
    cfg.fleet_publish_every_ticks = 5;
    return cfg;
}

ArrivalFn
steadyArrivals()
{
    auto counter = std::make_shared<uint64_t>(0);
    return [counter](double, double) {
        std::vector<TranscodeStep> steps;
        for (int i = 0; i < 3; ++i) {
            const uint64_t id = (*counter)++;
            steps.push_back(makeMotStep(
                id, id / 8, static_cast<int>(id % 8), {1280, 720},
                wsva::video::codec::CodecType::VP9));
        }
        return steps;
    };
}

TEST(Profilez, PageServesTopTableAndFlameFromLiveSim)
{
    ProfileRegistry &reg = freshProfiler();
    reg.setEnabled(true);

    ClusterSim sim(demoConfig());
    sim.run(120.0, 1.0, steadyArrivals());
    reg.publish();

    DebugServer server;
    sim.attachDebugServer(server, "profilez test");
    ASSERT_TRUE(server.start());

    // The index lists both profiling pages.
    const auto index = httpGet(server.port(), "/");
    ASSERT_EQ(index.status, 200);
    EXPECT_NE(index.body.find("/profilez"), std::string::npos);

    const auto profilez = httpGet(server.port(), "/profilez");
    ASSERT_EQ(profilez.status, 200);
    EXPECT_NE(profilez.body.find("profiler: enabled"),
              std::string::npos);
    // The dispatch phase must show up with real time.
    EXPECT_NE(profilez.body.find("cluster/dispatch"),
              std::string::npos);
    EXPECT_NE(profilez.body.find("per-thread:"), std::string::npos);

    const auto flame = httpGet(server.port(), "/profilez/flame");
    ASSERT_EQ(flame.status, 200);
    EXPECT_NE(flame.body.find("cluster;dispatch"), std::string::npos);

    server.stop();
    reg.setEnabled(false);
}

TEST(Profilez, VarzAndHealthzCarryBuildStamp)
{
    freshProfiler();
    ClusterSim sim(demoConfig());
    sim.run(30.0, 1.0, steadyArrivals());

    DebugServer server;
    sim.attachDebugServer(server, "stamp test");
    ASSERT_TRUE(server.start());

    // /varz keeps its top-level registry keys and gains "build".
    const auto varz = httpGet(server.port(), "/varz");
    ASSERT_EQ(varz.status, 200);
    wsva::testsupport::JsonValue vdoc;
    std::string error;
    ASSERT_TRUE(parseJson(varz.body, &vdoc, &error)) << error;
    ASSERT_TRUE(vdoc.has("counters"));
    ASSERT_TRUE(vdoc.has("build"));
    const auto *build = vdoc.get("build");
    ASSERT_TRUE(build->isObject());
    EXPECT_FALSE(build->get("build_type")->str.empty());
    EXPECT_EQ(build->numberAt("export_schema_version"),
              ClusterSim::kExportSchemaVersion);
    EXPECT_GE(build->numberAt("uptime_s"), 0.0);
    ASSERT_NE(build->get("native_arch"), nullptr);

    const auto healthz = httpGet(server.port(), "/healthz");
    ASSERT_EQ(healthz.status, 200);
    wsva::testsupport::JsonValue hdoc;
    ASSERT_TRUE(parseJson(healthz.body, &hdoc, &error)) << error;
    ASSERT_TRUE(hdoc.has("build_info"));
    EXPECT_EQ(hdoc.get("build_info")->numberAt("export_schema_version"),
              ClusterSim::kExportSchemaVersion);

    server.stop();
}

TEST(Profilez, ExportJsonHasProfileAndBuildBlocks)
{
    ProfileRegistry &reg = freshProfiler();
    reg.setEnabled(true);
    ClusterSim sim(demoConfig());
    sim.run(60.0, 1.0, steadyArrivals());
    reg.setEnabled(false);

    wsva::testsupport::JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(sim.exportJson(), &doc, &error)) << error;
    EXPECT_EQ(doc.numberAt("schema_version"), 5.0);

    const auto *build = doc.get("build");
    ASSERT_NE(build, nullptr);
    EXPECT_EQ(build->numberAt("export_schema_version"), 5.0);

    const auto *profile = doc.get("profile");
    ASSERT_NE(profile, nullptr);
    ASSERT_TRUE(profile->isObject());
    const auto *top = profile->get("top");
    ASSERT_NE(top, nullptr);
    ASSERT_TRUE(top->isArray());
    ASSERT_FALSE(top->array.empty());
    // Every row names a phase and carries the attribution columns.
    for (const auto &row : top->array) {
        EXPECT_FALSE(row.get("phase")->str.empty());
        EXPECT_GE(row.numberAt("excl_ms"), 0.0);
        EXPECT_LE(row.numberAt("excl_ms"),
                  row.numberAt("incl_ms") + 1e-9);
        EXPECT_GE(row.numberAt("calls"), 1.0);
    }
}

TEST(Profilez, ScrapeVsRecordHammerWhileSimRuns)
{
    // The TSan acceptance scenario: the sim records phases (and the
    // sampler walks published stacks) on their own threads while
    // scrapers hammer /profilez, /profilez/flame, and /varz.
    ProfileRegistry &reg = freshProfiler();
    reg.setEnabled(true);
    reg.startSampler(/*period_us=*/500);

    ClusterSim sim(demoConfig());
    DebugServer server;
    sim.attachDebugServer(server, "profilez hammer");
    ASSERT_TRUE(server.start());
    const uint16_t port = server.port();

    std::thread sim_thread(
        [&] { sim.run(400.0, 1.0, steadyArrivals()); });

    std::atomic<int> transport_errors{0};
    std::atomic<int> bad_pages{0};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 3; ++t) {
        scrapers.emplace_back([&] {
            for (int i = 0; i < 25; ++i) {
                const auto prof = httpGet(port, "/profilez");
                const auto flame = httpGet(port, "/profilez/flame");
                const auto varz = httpGet(port, "/varz");
                if (!prof.ok || !flame.ok || !varz.ok) {
                    transport_errors.fetch_add(1);
                    continue;
                }
                if (prof.status != 200 || flame.status != 200 ||
                    varz.status != 200)
                    bad_pages.fetch_add(1);
                // Every scrape renders a complete table header even
                // mid-run (double-buffered board or live fallback).
                if (prof.body.find("profiler:") == std::string::npos)
                    bad_pages.fetch_add(1);
            }
        });
    }
    for (auto &t : scrapers)
        t.join();
    sim_thread.join();
    server.stop();
    reg.stopSampler();
    reg.setEnabled(false);

    EXPECT_EQ(transport_errors.load(), 0);
    EXPECT_EQ(bad_pages.load(), 0);
}

TEST(ProfilerDeterminism, OnOffLeavesLedgerAndRngByteIdentical)
{
    // The fault schedule is RNG-driven, so equality of every ledger
    // field across a dark run and a fully-profiled run (timers +
    // sampler) proves the profiler never touches the RNG streams or
    // sim state — it only reads clocks and writes its own TLS.
    const ClusterConfig cfg = demoConfig();

    ProfileRegistry &reg = freshProfiler();
    ClusterSim dark(cfg);
    const ClusterMetrics m_dark = dark.run(300.0, 1.0, steadyArrivals());
    const std::string fp_dark = ledgerFingerprint(m_dark, dark);
    const std::string trace_dark = dark.traceLog().toJson(100000);

    reg.setEnabled(true);
    reg.startSampler(/*period_us=*/500);
    ClusterSim profiled(cfg);
    const ClusterMetrics m_prof =
        profiled.run(300.0, 1.0, steadyArrivals());
    reg.stopSampler();
    reg.setEnabled(false);
    const std::string fp_prof = ledgerFingerprint(m_prof, profiled);
    const std::string trace_prof = profiled.traceLog().toJson(100000);

    EXPECT_EQ(fp_dark, fp_prof);
    // The full trace (every sim event with timestamps) is the
    // byte-level witness of the RNG-driven schedule.
    EXPECT_EQ(trace_dark, trace_prof);
}

} // namespace
