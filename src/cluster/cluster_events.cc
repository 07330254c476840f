/**
 * @file
 * The discrete-event run loop of ClusterSim.
 *
 * A worker is touched only when an event lands on it, so a quiet
 * fleet costs nothing and each event costs O(log E). Five event kinds
 * drive the fleet (DESIGN.md section 9):
 *
 *  - ArrivalBatch: pull one dt's worth of arrivals, then reschedule.
 *    Times accumulate by repeated addition of dt, the same way the
 *    run horizon does, so the last batch lands exactly on it. Without
 *    an arrival function the chain runs only while a deadline step or
 *    a shed lot is queued, so dispatch notices slack running out and
 *    the lot's release coming due.
 *  - HardFault / SilentFault: one fleet-level Poisson process per
 *    kind at rate (per-VCU rate x total VCUs), with a uniformly
 *    drawn victim discarded when it is not an active VCU. Thinning a
 *    superposed process this way is exactly equivalent to running an
 *    independent exponential clock per active VCU.
 *  - RepairDone: scheduled at the repair queue's completion time
 *    when a host enters repair; cap-deferred hosts sit on a waitlist
 *    drained here. The waitlist is ClusterSim state, not run state,
 *    so a deferred host keeps its place across run() calls.
 *  - WorkerDone: each worker keys at most one pending event to its
 *    earliest running finish time; assignments and aborts cancel or
 *    reschedule it (lazy state advancement).
 *  - SloEval: per-dt bookkeeping (SLO window accounting, fleet-
 *    health publish cadence), scheduled only when the SLO monitor or
 *    observability actually consumes it — an unobserved quiet fleet
 *    processes zero events per dt.
 *
 * Events at one timestamp are processed as a batch (the queue's type
 * tie-break fixes their order), then a single backlog-dispatch pass
 * runs if any event added work or freed capacity, then the
 * step-conservation ledger is audited.
 */

#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/profiler.h"

namespace {

/** Interned phase id per SimEventType, indexed by the enum value. */
struct EventPhases {
    int run;
    int ids[6];
    int byType(size_t type) const
    {
        return type < 6 ? ids[type] : -1;
    }
};

const EventPhases &
eventPhases()
{
    using wsva::prof::phaseId;
    static const EventPhases p{
        phaseId("cluster/run"),
        {
            phaseId("event/arrival_batch"),
            phaseId("event/hard_fault"),
            phaseId("event/silent_fault"),
            phaseId("event/repair_done"),
            phaseId("event/worker_done"),
            phaseId("event/slo_eval"),
        }};
    return p;
}

} // namespace

namespace wsva::cluster {

void
ClusterSim::cancelCompletionEvent(int gid)
{
    EventQueue::Handle &h =
        ev_->completion_ev[static_cast<size_t>(gid)];
    if (h != EventQueue::kInvalidHandle) {
        ev_->queue.cancel(h);
        h = EventQueue::kInvalidHandle;
    }
}

void
ClusterSim::updateCompletionEvent(Worker *w)
{
    EventQueue::Handle &h =
        ev_->completion_ev[static_cast<size_t>(w->id())];
    const double next = w->nextFinishTime();
    if (h != EventQueue::kInvalidHandle && ev_->queue.pending(h)) {
        if (std::isfinite(next) && ev_->queue.timeOf(h) == next)
            return; // Already keyed to the earliest finish.
        ev_->queue.cancel(h);
    }
    h = EventQueue::kInvalidHandle;
    if (std::isfinite(next))
        h = ev_->queue.schedule(next, SimEventType::WorkerDone,
                                w->id());
}

void
ClusterSim::scheduleArrivalBatch(double when)
{
    ev_->queue.schedule(when, SimEventType::ArrivalBatch);
    ev_->batch_pending = true;
}

void
ClusterSim::handleArrivalBatch(const ArrivalFn &arrivals, double now)
{
    ev_->batch_pending = false;
    if (arrivals)
        pullArrivals(arrivals, now, ev_->dt);
    // Dispatch even on an empty batch: the first batch also covers
    // work submitted before run().
    ev_->work_added = true;
    if (arrivals && now < ev_->end)
        scheduleArrivalBatch(now + ev_->dt);
}

void
ClusterSim::handleHardFault(double now)
{
    const int gid = static_cast<int>(
        rng_.uniformInt(static_cast<uint32_t>(totalVcus())));
    ev_->queue.schedule(now + rng_.exponential(ev_->hard_rate),
                        SimEventType::HardFault);
    HostModel &host = hostOfGid(gid);
    Worker *w = workerByGid(gid);
    if (host.in_repair || w->health().disabled)
        return; // Thinning: the victim is not an active VCU.
    w->markFaulted(now);
    ++host.fault_count;
    ++metrics_.vcus_disabled;
    registry_.inc("cluster.vcus_disabled");
    trace_.record(TraceEventType::FaultInjected, now, host.id, gid);
    // The dead worker's in-flight steps fail now, under the same
    // outcome bookkeeping as a completion.
    cancelCompletionEvent(gid);
    collectWorker(host, w, now);
    ev_->work_added = true; // Failed steps re-queued as retries.
    maybeEnterRepair(host, now);
}

void
ClusterSim::handleSilentFault(double now)
{
    const int gid = static_cast<int>(
        rng_.uniformInt(static_cast<uint32_t>(totalVcus())));
    ev_->queue.schedule(now + rng_.exponential(ev_->silent_rate),
                        SimEventType::SilentFault);
    HostModel &host = hostOfGid(gid);
    Worker *w = workerByGid(gid);
    if (host.in_repair || w->health().disabled ||
        w->health().silent_fault)
        return; // Thinning: not an active, still-honest VCU.
    w->markSilentFault(cfg_.silent_speed_factor);
    registry_.inc("cluster.silent_faults");
    trace_.record(TraceEventType::SilentFaultInjected, now, host.id,
                  gid);
    // No completion-event change: a silent fault only affects steps
    // assigned from now on (service times are fixed at assignment).
}

void
ClusterSim::handleRepairDone(double now)
{
    for (int host_id : repairs_.collectRepaired(now))
        restoreHost(hosts_[static_cast<size_t>(host_id)], now);
    ev_->capacity_changed = true;
    // A repair slot freed up: admit waitlisted hosts until the cap
    // blocks again (maybeEnterRepair re-waitlists the blocked one).
    while (!repair_waiting_.empty()) {
        const int id = repair_waiting_.front();
        repair_waiting_.pop_front();
        repair_waitlisted_[static_cast<size_t>(id)] = 0;
        HostModel &host = hosts_[static_cast<size_t>(id)];
        maybeEnterRepair(host, now);
        if (!host.in_repair)
            break; // Cap still full.
    }
}

void
ClusterSim::handleWorkerDone(int gid, double now)
{
    ev_->completion_ev[static_cast<size_t>(gid)] =
        EventQueue::kInvalidHandle; // This event just fired.
    HostModel &host = hostOfGid(gid);
    Worker *w = workerByGid(gid);
    collectWorker(host, w, now);
    updateCompletionEvent(w); // Later steps may still be running.
    ev_->capacity_changed = true;
    // A detected-corrupt outcome bumps host.fault_count; a host that
    // crosses its threshold goes to repair now.
    maybeEnterRepair(host, now);
}

void
ClusterSim::handleSloEval(double now)
{
    slo_.onTick(now);
    ++ticks_;
    if (cfg_.observability && cfg_.fleet_publish_every_ticks > 0 &&
        ticks_ % cfg_.fleet_publish_every_ticks == 0) {
        // Telemetry sampling rides the publish cadence: sampling
        // every worker every dt would cost a fleet scan per dt.
        sampleTick(now);
        publishRollup(now);
    }
    if (now < ev_->end)
        ev_->queue.schedule(now + ev_->dt, SimEventType::SloEval);
}

void
ClusterSim::handleEvent(const EventQueue::Event &e)
{
    const int phase =
        eventPhases().byType(static_cast<size_t>(e.type));
    if (e.type == SimEventType::WorkerDone) {
        // One per completion, the hottest event: sampled timing (it
        // opens no child scopes; call counts stay exact).
        prof::ProfScopeSampled prof_event(phase, 16);
        handleWorkerDone(e.arg, e.time);
        return;
    }
    // One phase scope per popped event gives the profiler
    // per-event-type time attribution (dark cost: one relaxed load +
    // branch; see profiler.h).
    prof::ProfScope prof_event(phase);
    switch (e.type) {
    case SimEventType::ArrivalBatch:
        handleArrivalBatch(*ev_->arrivals, e.time);
        break;
    case SimEventType::HardFault:
        handleHardFault(e.time);
        break;
    case SimEventType::SilentFault:
        handleSilentFault(e.time);
        break;
    case SimEventType::RepairDone:
        handleRepairDone(e.time);
        break;
    case SimEventType::SloEval:
        handleSloEval(e.time);
        break;
    case SimEventType::WorkerDone:
        break; // Handled above.
    }
}

ClusterMetrics
ClusterSim::run(double duration, double dt, const ArrivalFn &arrivals)
{
    WSVA_ASSERT(duration > 0 && dt > 0, "bad run parameters");
    prof::ProfScope prof_run(eventPhases().run);
    metrics_ = ClusterMetrics{};
    enc_util_samples_.reset();
    dec_util_samples_.reset();
    cpu_util_samples_.reset();

    const double start = clock_;
    const double end = start + duration;

    // The horizon is the first start + k*dt at or past the end,
    // accumulated by repeated addition exactly like the ArrivalBatch
    // and SloEval chains, so their last events land on it.
    double horizon = start;
    uint64_t tick_count = 0;
    while (horizon < end) {
        horizon += dt;
        ++tick_count;
    }

    // Reset the run state in place: the queue and the handle table
    // keep their storage from earlier calls. A cleared queue numbers
    // events from zero again, exactly as a new one would.
    EventRun &st = run_state_;
    st.queue.clear();
    st.dt = dt;
    st.end = end;
    st.arrivals = &arrivals;
    st.hard_rate = cfg_.vcu_hard_fault_per_hour / 3600.0 * totalVcus();
    st.silent_rate =
        cfg_.vcu_silent_fault_per_hour / 3600.0 * totalVcus();
    st.completion_ev.assign(static_cast<size_t>(totalVcus()),
                            EventQueue::kInvalidHandle);
    st.batch_pending = false;
    st.work_added = false;
    st.capacity_changed = false;
    ev_ = &st;

    // Carried-over state from earlier run() calls: in-flight steps
    // need completion events, in-repair hosts a RepairDone.
    for (auto &host : hosts_) {
        for (auto &w : host.workers) {
            if (!w->idle())
                updateCompletionEvent(w.get());
        }
        if (host.in_repair)
            st.queue.schedule(
                std::max(repairs_.completionTime(host.id), start),
                SimEventType::RepairDone, host.id);
    }

    if (arrivals || !backlog_.empty() || backlog_.shedSize() > 0)
        scheduleArrivalBatch(start + dt);
    if (st.hard_rate > 0)
        st.queue.schedule(start + rng_.exponential(st.hard_rate),
                          SimEventType::HardFault);
    if (st.silent_rate > 0)
        st.queue.schedule(start + rng_.exponential(st.silent_rate),
                          SimEventType::SilentFault);
    // Per-dt bookkeeping only when someone consumes it: with the SLO
    // monitor off and observability off (or publishing disabled), a
    // quiet fleet processes zero events per dt.
    const bool tick_events =
        cfg_.slo.enabled ||
        (cfg_.observability && cfg_.fleet_publish_every_ticks > 0);
    if (tick_events)
        st.queue.schedule(start + dt, SimEventType::SloEval);

    while (!st.queue.empty() && st.queue.nextTime() <= horizon) {
        const double t = st.queue.nextTime();
        st.work_added = false;
        st.capacity_changed = false;
        // Batch every event at this timestamp, then run one
        // backlog-dispatch pass, then audit.
        do {
            const EventQueue::Event e = st.queue.pop();
            clock_ = e.time;
            ++metrics_.events_processed;
            handleEvent(e);
        } while (!st.queue.empty() && st.queue.nextTime() == t);
        if (st.work_added || st.capacity_changed)
            scheduleBacklog(t);
        // A queued deadline step loses slack, and a shed lot comes due
        // for release, with no event to mark either moment. While one
        // waits, keep the arrival chain polling dispatch every dt.
        if (!st.batch_pending && !dispatch_paused_ &&
            (backlog_.deadlineSize() > 0 || backlog_.shedSize() > 0))
            scheduleArrivalBatch(t + dt);
        checkConservation(t);
    }

    clock_ = horizon;
    if (!tick_events)
        ticks_ += tick_count; // No SloEval chain counted them.
    ev_ = nullptr;
    return finishRun(start, horizon);
}

} // namespace wsva::cluster
