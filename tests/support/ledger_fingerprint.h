/**
 * @file
 * Ledger fingerprints for ClusterSim runs, shared by the profiler
 * determinism test and the golden-ledger oracle.
 *
 * A fingerprint renders every ledger-relevant field of one run (the
 * ClusterMetrics counters, the conservation snapshot and the trace
 * size) as text with full double precision, so two runs that agree
 * on it agree bit for bit. fnv1a() folds such text into a 64-bit
 * digest that a test can pin.
 */

#ifndef WSVA_TESTS_SUPPORT_LEDGER_FINGERPRINT_H
#define WSVA_TESTS_SUPPORT_LEDGER_FINGERPRINT_H

#include <cstdint>
#include <string>

#include "cluster/cluster.h"
#include "common/logging.h"

namespace wsva::testsupport {

/** Ledger fields that must be bit-identical across two runs of the
 *  same seeded scenario. */
inline std::string
ledgerFingerprint(const cluster::ClusterMetrics &m,
                  const cluster::ClusterSim &sim)
{
    const cluster::ConservationSnapshot c = sim.conservation();
    return strformat(
        "submitted=%llu completed=%llu failed=%llu retried=%llu "
        "corrupt=%llu escaped=%llu shed=%llu preempted=%llu "
        "placed=%llu rejected=%llu backlog=%zu inflight=%zu "
        "pixels=%.17g util=%.17g "
        "c.submitted=%llu c.completed=%llu c.failed=%llu "
        "c.inflight=%llu c.backlog=%llu c.shed=%llu holds=%d "
        "trace_events=%llu",
        (unsigned long long)m.steps_submitted,
        (unsigned long long)m.steps_completed,
        (unsigned long long)m.steps_failed,
        (unsigned long long)m.steps_retried,
        (unsigned long long)m.corrupt_detected,
        (unsigned long long)m.corrupt_escaped,
        (unsigned long long)m.steps_shed,
        (unsigned long long)m.steps_preempted,
        (unsigned long long)m.sched_placed,
        (unsigned long long)m.sched_rejected, m.backlog_remaining,
        m.steps_in_flight, m.output_pixels, m.encoder_utilization,
        (unsigned long long)c.submitted, (unsigned long long)c.completed,
        (unsigned long long)c.failed_terminal,
        (unsigned long long)c.in_flight, (unsigned long long)c.backlog,
        (unsigned long long)c.shed, c.holds() ? 1 : 0,
        (unsigned long long)sim.traceLog().size());
}

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

/** FNV-1a of @p text, continuing from @p hash. */
inline uint64_t
fnv1a(const std::string &text, uint64_t hash = kFnvOffset)
{
    for (const char ch : text) {
        hash ^= static_cast<uint8_t>(ch);
        hash *= kFnvPrime;
    }
    return hash;
}

} // namespace wsva::testsupport

#endif // WSVA_TESTS_SUPPORT_LEDGER_FINGERPRINT_H
