#include "global/global_router.h"

#include <algorithm>

#include "common/debug_server.h"
#include "common/logging.h"
#include "common/profiler.h"

namespace wsva::global {

using wsva::cluster::ClusterMetrics;
using wsva::cluster::ClusterSim;
using wsva::cluster::ConservationSnapshot;
using wsva::cluster::TranscodeStep;

GlobalRouter::GlobalRouter(GlobalRouterConfig cfg)
    : cfg_(cfg),
      ring_([&] {
          std::vector<int> ids;
          for (int r = 0; r < cfg.regions; ++r)
              ids.push_back(r);
          return ids;
      }(), cfg.ring_virtual_nodes)
{
    WSVA_ASSERT(cfg_.regions >= 1, "need at least one region");
    WSVA_ASSERT(cfg_.step_seconds > 0 && cfg_.dt > 0 &&
                    cfg_.dt <= cfg_.step_seconds,
                "bad router cadence");
    registry_.setEnabled(cfg_.observability);
    submitted_counter_ = registry_.counterHandle("global.steps_submitted");
    rerouted_counter_ = registry_.counterHandle("global.steps_rerouted");

    sims_.reserve(static_cast<size_t>(cfg_.regions));
    gates_.reserve(static_cast<size_t>(cfg_.regions));
    status_.resize(static_cast<size_t>(cfg_.regions));
    for (int r = 0; r < cfg_.regions; ++r) {
        wsva::cluster::ClusterConfig region_cfg = cfg_.cluster;
        region_cfg.seed = cfg_.cluster.seed +
                          static_cast<uint64_t>(r) * cfg_.seed_stride;
        sims_.push_back(std::make_unique<ClusterSim>(region_cfg));
        gates_.emplace_back(cfg_.health);
        status_[static_cast<size_t>(r)].id = r;
    }
    publishStatus();
}

double
GlobalRouter::loadFactor(int r) const
{
    const ClusterSim &sim = *sims_[static_cast<size_t>(r)];
    const ConservationSnapshot snap = sim.conservation();
    const double vcus =
        static_cast<double>(std::max(1, sim.totalVcus()));
    return static_cast<double>(snap.backlog + snap.in_flight) / vcus;
}

int
GlobalRouter::preferredRegion(const TranscodeStep &step) const
{
    const int origin = step.origin_region;
    if (origin >= 0 && origin < cfg_.regions &&
        !status_[static_cast<size_t>(origin)].quarantined)
        return origin;
    return ring_.workerCount() == 0 ? -1 : ring_.primary(step.video_id);
}

int
GlobalRouter::pickRegion(const TranscodeStep &step) const
{
    // Candidate order: locality-preferred region first, then the
    // ring walk for the step's video id across every routable
    // region. Take the first candidate under the spill threshold;
    // when every region is over it (fleet-wide overload), fall back
    // to the least-loaded routable region (first in that order on a
    // tie) rather than refusing. The walk runs only when the
    // preferred region is over the threshold: on a healthy fleet
    // almost every step stays put, and the walk is the costly part.
    const int preferred = preferredRegion(step);
    if (preferred < 0)
        return -1; // Nothing routable.
    double least_load = loadFactor(preferred);
    if (least_load <= cfg_.spill_load_factor)
        return preferred;

    int least_loaded = preferred;
    for (int r : ring_.affinitySet(step.video_id, ring_.workerCount())) {
        if (r == preferred)
            continue;
        const double load = loadFactor(r);
        if (load <= cfg_.spill_load_factor)
            return r;
        if (load < least_load) {
            least_load = load;
            least_loaded = r;
        }
    }
    return least_loaded;
}

void
GlobalRouter::routeStep(const TranscodeStep &step, bool fresh)
{
    if (fresh) {
        ++submitted_total_;
        submitted_counter_.inc();
    }
    const int dest = pickRegion(step);
    if (dest < 0) {
        // No routable region: the router holds the step (the ledger's
        // `pending` bucket) and retries each router step.
        pending_.push_back(step);
        return;
    }
    RegionStatus &st = status_[static_cast<size_t>(dest)];
    ++st.routed;
    const bool off_origin =
        step.origin_region >= 0 && dest != step.origin_region;
    if (!fresh || off_origin) {
        ++st.rerouted_in;
        ++rerouted_total_;
        rerouted_counter_.inc();
    }
    sims_[static_cast<size_t>(dest)]->submit(step);
}

void
GlobalRouter::submit(const TranscodeStep &step)
{
    routeStep(step, /*fresh=*/true);
}

void
GlobalRouter::drainPending()
{
    if (pending_.empty() || ring_.workerCount() == 0)
        return;
    std::deque<TranscodeStep> held;
    held.swap(pending_);
    for (const auto &step : held)
        routeStep(step, /*fresh=*/false);
}

void
GlobalRouter::expelAndReroute(int r)
{
    auto expelled = sims_[static_cast<size_t>(r)]->expelBacklog();
    if (expelled.empty())
        return;
    RegionStatus &st = status_[static_cast<size_t>(r)];
    st.expelled += expelled.size();
    registry_.inc("global.steps_expelled", expelled.size());
    for (const auto &step : expelled)
        routeStep(step, /*fresh=*/false);
}

void
GlobalRouter::observeRegion(int r, const ClusterMetrics &m)
{
    RegionStatus &st = status_[static_cast<size_t>(r)];
    st.retries += m.steps_retried;
    st.completions += m.steps_completed;

    RegionHealthGate &gate = gates_[static_cast<size_t>(r)];
    const auto transition =
        gate.observe(clock_, m.steps_retried, m.steps_completed);
    st.window_retry_rate = gate.windowRetryRate();
    st.quarantine_entries = gate.quarantineEntries();
    st.readmissions = gate.readmissions();

    if (!cfg_.health_gating)
        return; // Observe-only: the ablation arm never acts.

    st.quarantined = gate.quarantined();
    switch (transition) {
    case RegionHealthGate::Transition::Quarantined:
        ring_.removeWorker(r);
        // Freeze the region's own dispatch: without this, a retry
        // failing off a black-holed worker is re-placed on another
        // black-holed worker in the same instant, the backlog is
        // always empty at slice boundaries, and the trapped steps
        // churn attempts forever. Paused, they park in the backlog
        // where the per-step expel below can claim them.
        sims_[static_cast<size_t>(r)]->setDispatchPaused(true);
        registry_.inc("global.quarantine_entries");
        expelAndReroute(r);
        break;
    case RegionHealthGate::Transition::Readmitted:
        sims_[static_cast<size_t>(r)]->setDispatchPaused(false);
        ring_.addWorker(r);
        registry_.inc("global.readmissions");
        break;
    case RegionHealthGate::Transition::None:
        // A quarantined region keeps draining: work that was in
        // flight at quarantine entry finishes (or fails) into the
        // paused backlog between slices; expel it every step so the
        // region empties out instead of holding work hostage.
        if (st.quarantined)
            expelAndReroute(r);
        break;
    }
}

void
GlobalRouter::runFor(double duration, const RegionalArrivalFn &arrivals)
{
    WSVA_ASSERT(duration > 0, "bad duration");
    const double end = clock_ + duration;
    while (clock_ < end) {
        const double step_end =
            std::min(end, clock_ + cfg_.step_seconds);
        const double slice = step_end - clock_;

        // 1. Ingest this step's regional arrivals through routing.
        static const int kRoutePhase = prof::phaseId("global/route");
        {
            prof::ProfScope prof_route(kRoutePhase);
            if (arrivals) {
                for (int r = 0; r < cfg_.regions; ++r) {
                    for (auto &step : arrivals(r, step_end, slice))
                        routeStep(step, /*fresh=*/true);
                }
            }
            // 2. Steps held while nothing was routable get another
            //    try.
            drainPending();
        }

        // 3. Advance every region one slice; each run() returns the
        //    slice's delta metrics (the per-run counters reset at
        //    run() start), which is exactly the windowed signal the
        //    health gates consume.
        std::vector<ClusterMetrics> deltas;
        deltas.reserve(static_cast<size_t>(cfg_.regions));
        for (int r = 0; r < cfg_.regions; ++r)
            deltas.push_back(
                sims_[static_cast<size_t>(r)]->run(slice, cfg_.dt));
        clock_ = step_end;

        // 4. Health pass (after the slice so the gates see it).
        static const int kHealthPhase = prof::phaseId("global/health");
        prof::ProfScope prof_health(kHealthPhase);
        for (int r = 0; r < cfg_.regions; ++r)
            observeRegion(r, deltas[static_cast<size_t>(r)]);

        // 5. Audit the cross-region ledger and publish.
        auditConservation();
        exportGauges();
        publishStatus();
    }
}

GlobalConservation
GlobalRouter::conservation() const
{
    GlobalConservation g;
    g.submitted = submitted_total_;
    g.pending = pending_.size();
    for (const auto &sim : sims_) {
        const ConservationSnapshot snap = sim->conservation();
        g.completed += snap.completed;
        g.failed_terminal += snap.failed_terminal;
        g.in_flight += snap.in_flight;
        g.backlog += snap.backlog;
        g.shed += snap.shed;
    }
    return g;
}

void
GlobalRouter::auditConservation()
{
    ++audit_checks_;
    const GlobalConservation g = conservation();
    if (!g.holds()) {
        ++audit_violations_;
        registry_.inc("global.conservation_violations");
        warn("global conservation violated at t=%.3f: submitted %llu "
             "!= completed %llu + failed %llu + in-flight %llu + "
             "backlog %llu + shed %llu + pending %llu",
             clock_, static_cast<unsigned long long>(g.submitted),
             static_cast<unsigned long long>(g.completed),
             static_cast<unsigned long long>(g.failed_terminal),
             static_cast<unsigned long long>(g.in_flight),
             static_cast<unsigned long long>(g.backlog),
             static_cast<unsigned long long>(g.shed),
             static_cast<unsigned long long>(g.pending));
#ifndef NDEBUG
        WSVA_ASSERT(false, "global conservation violated at t=%.3f",
                    clock_);
#endif
    }
}

uint64_t
GlobalRouter::completedTotal() const
{
    uint64_t completed = 0;
    for (const auto &sim : sims_)
        completed += sim->conservation().completed;
    return completed;
}

double
GlobalRouter::retryAmplification() const
{
    uint64_t attempts = 0;
    uint64_t completed = 0;
    for (const auto &st : status_) {
        attempts += st.completions + st.retries;
        completed += st.completions;
    }
    return completed > 0 ? static_cast<double>(attempts) /
                               static_cast<double>(completed)
                         : 0.0;
}

double
GlobalRouter::availability() const
{
    return submitted_total_ > 0
               ? static_cast<double>(completedTotal()) /
                     static_cast<double>(submitted_total_)
               : 1.0;
}

void
GlobalRouter::exportGauges()
{
    if (!registry_.enabled())
        return;
    const GlobalConservation g = conservation();
    registry_.setGauge("global.submitted",
                       static_cast<double>(g.submitted));
    registry_.setGauge("global.completed",
                       static_cast<double>(g.completed));
    registry_.setGauge("global.in_flight",
                       static_cast<double>(g.in_flight));
    registry_.setGauge("global.backlog",
                       static_cast<double>(g.backlog));
    registry_.setGauge("global.shed", static_cast<double>(g.shed));
    registry_.setGauge("global.pending",
                       static_cast<double>(g.pending));
    registry_.setGauge("global.availability", availability());
    registry_.setGauge("global.retry_amplification",
                       retryAmplification());
    int quarantined = 0;
    for (const auto &st : status_) {
        const std::string prefix =
            strformat("global.region%d.", st.id);
        registry_.setGauge(prefix + "quarantined",
                           st.quarantined ? 1.0 : 0.0);
        registry_.setGauge(prefix + "routed",
                           static_cast<double>(st.routed));
        registry_.setGauge(prefix + "rerouted_in",
                           static_cast<double>(st.rerouted_in));
        registry_.setGauge(prefix + "expelled",
                           static_cast<double>(st.expelled));
        registry_.setGauge(prefix + "window_retry_rate",
                           st.window_retry_rate);
        registry_.setGauge(prefix + "retry_amplification",
                           st.retryAmplification());
        if (st.quarantined)
            ++quarantined;
    }
    registry_.setGauge("global.quarantined_regions",
                       static_cast<double>(quarantined));
}

std::string
GlobalRouter::statusText() const
{
    status_lock_.lock();
    std::string out = status_text_;
    status_lock_.unlock();
    return out;
}

void
GlobalRouter::publishStatus()
{
    const GlobalConservation g = conservation();
    std::string out = strformat(
        "global router: %d regions (%d routable), t=%.1fs\n"
        "submitted %llu, completed %llu, pending %llu, "
        "rerouted %llu, availability %.4f, amplification %.3f\n\n"
        "  region     state  routed   rr-in  expel  backlog "
        "inflight   compl  w-retry  amp\n",
        cfg_.regions, routableRegions(), clock_,
        static_cast<unsigned long long>(g.submitted),
        static_cast<unsigned long long>(g.completed),
        static_cast<unsigned long long>(g.pending),
        static_cast<unsigned long long>(rerouted_total_),
        availability(), retryAmplification());
    for (const auto &st : status_) {
        const ConservationSnapshot snap =
            sims_[static_cast<size_t>(st.id)]->conservation();
        out += strformat(
            "  region %-3d %-6s %7llu %7llu %6llu %8llu %8llu "
            "%7llu %7.2f%% %5.2f\n",
            st.id, st.quarantined ? "QUAR" : "ok",
            static_cast<unsigned long long>(st.routed),
            static_cast<unsigned long long>(st.rerouted_in),
            static_cast<unsigned long long>(st.expelled),
            static_cast<unsigned long long>(snap.backlog),
            static_cast<unsigned long long>(snap.in_flight),
            static_cast<unsigned long long>(snap.completed),
            st.window_retry_rate * 100.0, st.retryAmplification());
    }
    out += strformat("\nledger: %s\n",
                     g.holds() ? "holds" : "VIOLATED");

    status_lock_.lock();
    status_text_ = std::move(out);
    status_lock_.unlock();
}

void
GlobalRouter::attachDebugServer(wsva::DebugServer &server,
                                const std::string &build_info)
{
    wsva::ZPageSources sources;
    sources.metrics = &registry_;
    sources.build_info = build_info;
    // Scrape threads may only read the published status string and
    // the registry — never the sims or the router's routing state.
    const GlobalRouter *self = this;
    sources.statusz = [self] { return self->statusText(); };
    const int regions = cfg_.regions;
    sources.healthz_extra = [self, regions] {
        return strformat("\"regions\": %d, \"routable\": %d",
                         regions, self->routableRegions());
    };
    wsva::registerZPages(server, sources);
}

std::string
GlobalRouter::exportJson() const
{
    const GlobalConservation g = conservation();
    std::string out = strformat(
        "{\n\"schema_version\": %d,\n\"global\": {"
        "\"regions\": %d, \"routable\": %d, \"sim_time\": %.6g, "
        "\"availability\": %.6g, \"retry_amplification\": %.6g, "
        "\"rerouted\": %llu, \"audit_checks\": %llu, "
        "\"audit_violations\": %llu},\n\"regions\": [",
        ClusterSim::kExportSchemaVersion, cfg_.regions,
        routableRegions(), clock_, availability(),
        retryAmplification(),
        static_cast<unsigned long long>(rerouted_total_),
        static_cast<unsigned long long>(audit_checks_),
        static_cast<unsigned long long>(audit_violations_));
    for (int r = 0; r < cfg_.regions; ++r) {
        const RegionStatus &st = status_[static_cast<size_t>(r)];
        const ConservationSnapshot snap =
            sims_[static_cast<size_t>(r)]->conservation();
        out += strformat(
            "%s\n{\"id\": %d, \"quarantined\": %s, "
            "\"routed\": %llu, \"rerouted_in\": %llu, "
            "\"expelled\": %llu, \"retries\": %llu, "
            "\"completions\": %llu, \"window_retry_rate\": %.6g, "
            "\"retry_amplification\": %.6g, "
            "\"quarantine_entries\": %llu, \"readmissions\": %llu, "
            "\"conservation\": {\"submitted\": %llu, "
            "\"completed\": %llu, \"failed_terminal\": %llu, "
            "\"in_flight\": %llu, \"backlog\": %llu, "
            "\"shed\": %llu, \"rerouted_away\": %llu, "
            "\"holds\": %s}}",
            r > 0 ? "," : "", st.id,
            st.quarantined ? "true" : "false",
            static_cast<unsigned long long>(st.routed),
            static_cast<unsigned long long>(st.rerouted_in),
            static_cast<unsigned long long>(st.expelled),
            static_cast<unsigned long long>(st.retries),
            static_cast<unsigned long long>(st.completions),
            st.window_retry_rate, st.retryAmplification(),
            static_cast<unsigned long long>(st.quarantine_entries),
            static_cast<unsigned long long>(st.readmissions),
            static_cast<unsigned long long>(snap.submitted),
            static_cast<unsigned long long>(snap.completed),
            static_cast<unsigned long long>(snap.failed_terminal),
            static_cast<unsigned long long>(snap.in_flight),
            static_cast<unsigned long long>(snap.backlog),
            static_cast<unsigned long long>(snap.shed),
            static_cast<unsigned long long>(snap.rerouted_away),
            snap.holds() ? "true" : "false");
    }
    out += strformat(
        "\n],\n\"conservation\": {\"submitted\": %llu, "
        "\"completed\": %llu, \"failed_terminal\": %llu, "
        "\"in_flight\": %llu, \"backlog\": %llu, \"shed\": %llu, "
        "\"pending\": %llu, \"holds\": %s}\n}",
        static_cast<unsigned long long>(g.submitted),
        static_cast<unsigned long long>(g.completed),
        static_cast<unsigned long long>(g.failed_terminal),
        static_cast<unsigned long long>(g.in_flight),
        static_cast<unsigned long long>(g.backlog),
        static_cast<unsigned long long>(g.shed),
        static_cast<unsigned long long>(g.pending),
        g.holds() ? "true" : "false");
    return out;
}

} // namespace wsva::global
