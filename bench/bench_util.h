/**
 * @file
 * What the bench binaries share: the two clocks they time runs with,
 * and the two cluster scenarios that more than one bench runs.
 * Header-only, since every bench is a single translation unit.
 */

#ifndef WSVA_BENCH_BENCH_UTIL_H
#define WSVA_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <ctime>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/profiler.h"

namespace wsva::bench {

/** Steady-clock seconds from an arbitrary epoch; subtract two reads. */
inline double
wallSeconds()
{
    return static_cast<double>(prof::nowNs()) * 1e-9;
}

/**
 * CPU seconds consumed by this process, summed over its threads.
 * Unlike wall time it does not charge for preemption by noisy
 * neighbours, which on a shared machine swamps a few-percent effect.
 */
inline double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * The 4-host cluster scenario of bench_cluster, which
 * bench_observability times with and without its telemetry layers:
 * 40 1080p uploads a second for 20 minutes, with hard and silent
 * faults and capped repairs.
 */
namespace steady {

constexpr double kHorizonSeconds = 1200.0;
constexpr double kTickSeconds = 1.0;
constexpr int kHosts = 4;
constexpr int kVcusPerHost = 20;
constexpr int kStepsPerTick = 40;

/** The scenario's fleet and fault processes; telemetry at defaults
 *  except a small trace ring (neither bench reports trace events). */
inline cluster::ClusterConfig
config()
{
    cluster::ClusterConfig cfg;
    cfg.hosts = kHosts;
    cfg.vcus_per_host = kVcusPerHost;
    cfg.seed = 41;
    cfg.vcu_hard_fault_per_hour = 6.0;
    cfg.vcu_silent_fault_per_hour = 6.0;
    cfg.failure.host_fault_threshold = 3;
    cfg.failure.repair_cap = 2;
    cfg.failure.repair_seconds = 300.0;
    cfg.trace_capacity = 4096;
    return cfg;
}

/** kStepsPerTick 1080p VP9 MOT steps every tick. */
inline cluster::ArrivalFn
arrivals()
{
    auto counter = std::make_shared<uint64_t>(0);
    return [counter](double, double) {
        std::vector<cluster::TranscodeStep> steps;
        for (int i = 0; i < kStepsPerTick; ++i) {
            const uint64_t id = (*counter)++;
            steps.push_back(cluster::makeMotStep(
                id, id / 8, static_cast<int>(id % 8), {1920, 1080},
                video::codec::CodecType::VP9));
        }
        return steps;
    };
}

} // namespace steady

/**
 * The fleet-scale trough scenario, which bench_fleet_scale sweeps up
 * to 10,000 hosts and bench_profile profiles at that top scale:
 * ~6% busy with ~20-s services and light fault processes, the
 * overnight valley where a scanning engine would waste almost every
 * cycle.
 */
namespace trough {

constexpr double kHorizonSeconds = 2000.0;
constexpr double kTickSeconds = 0.25;
constexpr int kVcusPerHost = 20;
constexpr double kTargetUtilization = 0.06;
constexpr double kServiceSeconds = 20.0; //!< 1200 frames / 30 fps / 2x.

/** Arrivals per tick that hold @p hosts at kTargetUtilization. */
inline double
stepsPerTick(int hosts)
{
    return hosts * kVcusPerHost * kTargetUtilization / kServiceSeconds *
           kTickSeconds;
}

/**
 * Steady arrivals at a possibly fractional per-tick rate (a carry
 * accumulator spreads sub-1/tick rates evenly). Steps are 40 s video
 * chunks (1200 frames at 30 fps), i.e. ~20 s of service at the 2x
 * allocation speedup — long-lived work at low density.
 */
inline cluster::ArrivalFn
arrivals(double per_tick)
{
    auto counter = std::make_shared<uint64_t>(0);
    auto carry = std::make_shared<double>(0.0);
    return [per_tick, counter, carry](double, double) {
        *carry += per_tick;
        const int n = static_cast<int>(*carry);
        *carry -= n;
        std::vector<cluster::TranscodeStep> steps;
        steps.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            const uint64_t id = (*counter)++;
            cluster::TranscodeStep step = cluster::makeMotStep(
                id, id / 8, static_cast<int>(id % 8), {1920, 1080},
                video::codec::CodecType::VP9);
            step.frames = 1200;
            steps.push_back(step);
        }
        return steps;
    };
}

/** @p hosts hosts of the trough fleet, SLO monitor off. */
inline cluster::ClusterConfig
config(int hosts, bool observability)
{
    cluster::ClusterConfig cfg;
    cfg.hosts = hosts;
    cfg.vcus_per_host = kVcusPerHost;
    cfg.seed = 4242;
    // Light but non-zero fault processes: the runs must pay for
    // fault/repair handling, not just completions.
    cfg.vcu_hard_fault_per_hour = 0.01;
    cfg.vcu_silent_fault_per_hour = 0.02;
    cfg.failure.repair_seconds = 600.0;
    cfg.observability = observability;
    cfg.slo.enabled = false;
    // The (video, VCU) blast-radius map grows with distinct pairs —
    // at 200k VCUs and a million steps it would dominate memory.
    cfg.track_blast_radius = false;
    return cfg;
}

} // namespace trough

} // namespace wsva::bench

#endif // WSVA_BENCH_BENCH_UTIL_H
