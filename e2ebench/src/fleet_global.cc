/**
 * @file
 * fleet_global: the simulator with telemetry dark. Each op is one
 * router step, GlobalRouter::runFor(step), over 8 regions x 1,250
 * hosts x 20 VCUs = 200k VCUs on the event engine, with region-tagged
 * upload traffic, light hard and silent faults, and health gating on.
 * One region is forced into black-hole mode during set-up, so the
 * measured window covers the steady quarantined regime (quarantine,
 * drain, probe re-admission) and no op straddles the fault. Neither
 * the codec nor per-region telemetry runs.
 */

#include <map>
#include <memory>

#include "global/global_router.h"
#include "workload/traffic.h"
#include "workloads.h"

namespace e2e {

using wsva::cluster::SimEngine;
using wsva::global::GlobalRouter;
using wsva::global::GlobalRouterConfig;

namespace {

constexpr double kStepSeconds = 4.0; //!< One op: one router step.
constexpr double kTickSeconds = 0.5;
constexpr double kBlackholeSpeedFactor = 0.4;
constexpr double kHardFaultsPerVcuHour = 0.01;
constexpr double kSilentFaultsPerVcuHour = 0.005;

GlobalRouterConfig
routerConfig(const FleetGlobalSize &size, uint64_t seed)
{
    GlobalRouterConfig cfg;
    cfg.regions = size.regions;
    cfg.step_seconds = kStepSeconds;
    cfg.dt = kTickSeconds;
    cfg.health_gating = true;
    cfg.cluster.hosts = size.hosts_per_region;
    cfg.cluster.vcus_per_host = 20;
    cfg.cluster.engine = SimEngine::Event;
    cfg.cluster.seed = deriveSeed(seed, 1);
    cfg.cluster.vcu_hard_fault_per_hour = kHardFaultsPerVcuHour;
    cfg.cluster.vcu_silent_fault_per_hour = kSilentFaultsPerVcuHour;
    // bench_global's black-hole failure shape: corruption is always
    // detected and nothing self-heals, so the health gate is the only
    // defense and the quarantined regime stays steady.
    cfg.cluster.failure.integrity_detect_prob = 1.0;
    cfg.cluster.failure.golden_screening = false;
    cfg.cluster.failure.abort_on_failure = false;
    cfg.cluster.failure.host_fault_threshold = 1 << 30;
    // Per-region telemetry dark, as in bench_global.
    cfg.cluster.observability = false;
    cfg.cluster.slo.enabled = false;
    cfg.cluster.track_blast_radius = false;
    return cfg;
}

/** The fleet plus its traffic, as set-up leaves them. */
struct Fleet
{
    std::unique_ptr<GlobalRouter> router;
    std::unique_ptr<wsva::workload::RegionalUploadTraffic> traffic;
};

/** Router-wide counters the fingerprint window takes deltas of. */
struct Totals
{
    uint64_t rerouted = 0;
    uint64_t expelled = 0;
    uint64_t quarantine_entries = 0;
    uint64_t retries = 0;

    static Totals of(const GlobalRouter &router)
    {
        Totals t;
        t.rerouted = router.reroutedTotal();
        for (int r = 0; r < router.regions(); ++r) {
            const auto &st = router.status(r);
            t.expelled += st.expelled;
            t.quarantine_entries += st.quarantine_entries;
            t.retries += st.retries;
        }
        return t;
    }
};

} // namespace

RunResult
runFleetGlobal(const RunArgs &args, const FleetGlobalSize &size)
{
    RunResult result;
    const int blackhole = size.regions > 3 ? 3 : 0;

    TraceArm arm;
    static const int kGenPhase = wsva::prof::phaseId("workload/gen");
    wsva::workload::RegionalUploadTraffic *traffic = nullptr;
    const auto arrivals = [&](int region, double now, double dt) {
        LayerCall call(arm.tracer(), "arrivals", kGenPhase);
        return traffic->arrivals(region, now, dt);
    };

    // Set-up: build the fleet, warm it to steady occupancy, black-hole
    // one region and let the gate quarantine it. The previous round's
    // fleet is freed first, so only one fleet is ever resident.
    Workload w;
    w.rounds = size.rounds;
    w.window_ops = size.window_ops;
    Fleet fleet;
    Totals start;
    uint64_t start_completed = 0;
    bool window_round = false;
    w.setup = [&](int round) {
        // Round 0 runs the seed's own inputs and holds the fingerprint
        // window. Later rounds draw fresh traffic and faults from the
        // seed: at equal load the router's cost per step differs by tens
        // of percent between draws, so one run averages over several.
        const uint64_t seed =
            round == 0
                ? args.seed
                : deriveSeed(args.seed, 100 + static_cast<uint64_t>(round));
        window_round = round == 0;
        fleet = Fleet{};
        fleet.router =
            std::make_unique<GlobalRouter>(routerConfig(size, seed));
        wsva::workload::UploadTrafficConfig uploads;
        uploads.uploads_per_second = size.uploads_per_second;
        uploads.seed = deriveSeed(seed, 2);
        fleet.traffic = std::make_unique<wsva::workload::RegionalUploadTraffic>(
            size.regions, uploads);
        traffic = fleet.traffic.get();
        fleet.router->runFor(size.warmup_seconds, arrivals);
        fleet.router->region(blackhole).forceSilentFaults(
            kBlackholeSpeedFactor);
        fleet.router->runFor(size.settle_seconds, arrivals);
        if (fleet.router->status(blackhole).quarantine_entries == 0)
            result.fail("black-holed region was not quarantined in set-up");
        start = Totals::of(*fleet.router);
        start_completed = fleet.router->completedTotal();
    };

    bool have_window = false;
    w.op = [&](size_t i) {
        GlobalRouter &router = *fleet.router;
        const uint64_t violations = router.auditViolations();
        const uint64_t completed = router.completedTotal();
        OpSample s;
        {
            LayerCall call(arm.tracer(), "router.runFor", -1);
            const double t0 = nowSeconds();
            router.runFor(kStepSeconds, arrivals);
            s.ms = (nowSeconds() - t0) * 1e3;
        }
        s.steps = router.completedTotal() - completed;
        s.ok = router.auditViolations() == violations &&
               router.conservation().holds();
        for (int r = 0; r < router.regions(); ++r)
            s.ok = s.ok && router.region(r).conservation().holds();

        if (window_round && i + 1 == size.window_ops) {
            const Totals t = Totals::of(router);
            const auto g = router.conservation();
            std::map<std::string, double> fp;
            fp["sim_availability"] = router.availability();
            fp["sim_retry_amp"] = router.retryAmplification();
            fp["global.rerouted"] =
                static_cast<double>(t.rerouted - start.rerouted);
            fp["global.expelled"] =
                static_cast<double>(t.expelled - start.expelled);
            fp["global.quarantine_entries"] = static_cast<double>(
                t.quarantine_entries - start.quarantine_entries);
            fp["cluster.retries"] =
                static_cast<double>(t.retries - start.retries);
            fp["window.completed"] = static_cast<double>(
                router.completedTotal() - start_completed);
            uint64_t h = fnv1a(nullptr, 0);
            for (uint64_t v : {g.submitted, g.completed, g.in_flight,
                               g.backlog, g.shed, g.pending})
                h = fnvMix(h, v);
            for (int r = 0; r < router.regions(); ++r) {
                const auto &st = router.status(r);
                for (uint64_t v : {st.routed, st.rerouted_in, st.expelled,
                                   st.retries, st.completions,
                                   st.quarantine_entries})
                    h = fnvMix(h, v);
            }
            recordWindow(result, have_window, std::move(fp), h);
        }
        return s;
    };
    w.per_layer = [&](RunResult &r, const TracedPass &pass) {
        const double n = static_cast<double>(pass.ops);
        // Arrivals run inside global/route, outside cluster/run.
        addEventCoreLayer(r, arm, pass,
                          phase(pass.profile, "cluster/run").incl_ms);
        r.set("global.route_ms",
              phase(pass.profile, "global/route").excl_ms / n, "ms");
        r.set("global.health_ms",
              phase(pass.profile, "global/health").incl_ms / n, "ms");
        r.fingerprint["cluster.events"] = static_cast<double>(
            phaseCallsWithPrefix(pass.window_profile, "event/"));
    };

    runWorkload(args, arm, w, result);
    return result;
}

} // namespace e2e
