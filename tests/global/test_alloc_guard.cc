/**
 * @file
 * Allocation guard for the routed-step path: traffic generation,
 * routing, submit, dispatch and completion must not touch the heap
 * per step. This executable replaces the global operator new with a
 * counting one, which is why it is built on its own.
 *
 * The fleet is fleet_global's shape at 1/50 scale: 8 regions, upload
 * traffic scaled with the hosts, telemetry dark, light faults, and
 * one region black-holed and held in quarantine. Over warmed router
 * steps it must make fewer than one allocation per completed step.
 * What remains is the dispatch lanes' std::deque blocks (one per six
 * steps) and work per router step or per arrival batch (gauges, the
 * status table, one arrival vector per region): 0.38 per step here.
 * Before the per-step path was made allocation-free it made 18.5.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "global/global_router.h"
#include "workload/traffic.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace wsva::global {
namespace {

TEST(AllocationGuard, WarmedRouterStepsAllocateLessThanOncePerStep)
{
    constexpr int kRegions = 8;
    constexpr int kHostsPerRegion = 25;
    constexpr int kBlackhole = 3;

    GlobalRouterConfig cfg;
    cfg.regions = kRegions;
    cfg.step_seconds = 4.0;
    cfg.dt = 0.5;
    cfg.cluster.hosts = kHostsPerRegion;
    cfg.cluster.vcus_per_host = 20;
    cfg.cluster.seed = 5;
    cfg.cluster.vcu_hard_fault_per_hour = 0.01;
    cfg.cluster.vcu_silent_fault_per_hour = 0.005;
    cfg.cluster.failure.integrity_detect_prob = 1.0;
    cfg.cluster.failure.golden_screening = false;
    cfg.cluster.failure.abort_on_failure = false;
    cfg.cluster.failure.host_fault_threshold = 1 << 30;
    cfg.cluster.observability = false;
    cfg.cluster.slo.enabled = false;
    cfg.cluster.track_blast_radius = false;
    GlobalRouter router(cfg);

    wsva::workload::UploadTrafficConfig uploads;
    uploads.uploads_per_second = 60.0 * kHostsPerRegion / 1250.0;
    uploads.seed = 9;
    wsva::workload::RegionalUploadTraffic traffic(kRegions, uploads);
    const RegionalArrivalFn arrivals = [&traffic](int region, double now,
                                                  double dt) {
        return traffic.arrivals(region, now, dt);
    };

    // Warm to steady occupancy, black-hole one region, let the gate
    // quarantine it, then two more router steps so the queues and
    // worker batches reach their working sizes.
    router.runFor(30.0, arrivals);
    router.region(kBlackhole).forceSilentFaults(0.4);
    router.runFor(20.0, arrivals);
    ASSERT_GT(router.status(kBlackhole).quarantine_entries, 0u);
    router.runFor(8.0, arrivals);

    const uint64_t completed_before = router.completedTotal();
    const uint64_t allocations_before =
        g_allocations.load(std::memory_order_relaxed);
    for (int step = 0; step < 5; ++step)
        router.runFor(cfg.step_seconds, arrivals);
    const uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed) - allocations_before;
    const uint64_t completed = router.completedTotal() - completed_before;

    ASSERT_GT(completed, 1000u);
    EXPECT_LT(static_cast<double>(allocations) /
                  static_cast<double>(completed),
              1.0)
        << allocations << " allocations over " << completed
        << " completed steps";
    EXPECT_EQ(router.auditViolations(), 0u);
}

} // namespace
} // namespace wsva::global
