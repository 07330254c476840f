#include "cluster/cluster.h"

#include <algorithm>

#include "common/build_info.h"
#include "common/debug_server.h"
#include "common/logging.h"
#include "common/profiler.h"

namespace wsva::cluster {

namespace {

/** Interned-once phase ids for the cluster-side profiling scopes
 *  (DESIGN.md section 13 has the taxonomy). */
struct ClusterPhases {
    int dispatch;
    int dispatch_index;
    int audit;
    int publish;
};

const ClusterPhases &
clusterPhases()
{
    static const ClusterPhases p{
        prof::phaseId("cluster/dispatch"),
        prof::phaseId("cluster/dispatch/index"),
        prof::phaseId("cluster/audit"),
        prof::phaseId("cluster/publish"),
    };
    return p;
}

/** Interned ids of the dimensions the utilization samples read. */
struct UtilDims {
    uint16_t enc;
    uint16_t dec;
    uint16_t host_cpu;
};

const UtilDims &
utilDims()
{
    static const UtilDims d{
        resourceDimId(kResEncodeMillicores),
        resourceDimId(kResDecodeMillicores),
        resourceDimId(kResHostCpuMillicores),
    };
    return d;
}

/** retries / (completions + retries); 0 when nothing happened yet. */
double
retryRate(uint64_t retries, uint64_t completions)
{
    const uint64_t denom = retries + completions;
    return denom > 0 ? static_cast<double>(retries) / denom : 0.0;
}

} // namespace

ClusterSim::ClusterSim(ClusterConfig cfg)
    : cfg_(cfg), rng_(cfg.seed), repairs_(cfg.failure),
      trace_(cfg.trace_capacity), own_tracer_(cfg.span_capacity),
      slo_(cfg.slo)
{
    WSVA_ASSERT(cfg_.hosts > 0 && cfg_.vcus_per_host > 0,
                "cluster needs hosts and VCUs");

    registry_.setEnabled(cfg_.observability);
    trace_.setEnabled(cfg_.observability);
    own_tracer_.setEnabled(cfg_.observability && cfg_.tracing);
    tracer_ = cfg_.tracer != nullptr ? cfg_.tracer : &own_tracer_;
    slo_.attach(&registry_, &trace_);
    repairs_.attachObservability(&registry_, &trace_);

    repair_enter_.assign(static_cast<size_t>(cfg_.hosts), -1.0);
    quarantine_enter_.assign(
        static_cast<size_t>(cfg_.hosts * cfg_.vcus_per_host), -1.0);
    host_retries_.assign(static_cast<size_t>(cfg_.hosts), 0);
    host_completions_.assign(static_cast<size_t>(cfg_.hosts), 0);
    preempt_candidate_flag_.assign(
        static_cast<size_t>(cfg_.hosts * cfg_.vcus_per_host), 0);

    std::vector<Worker *> all_workers;
    int worker_id = 0;
    for (int h = 0; h < cfg_.hosts; ++h) {
        HostModel host;
        host.id = h;
        host.vcu_health.resize(static_cast<size_t>(cfg_.vcus_per_host));
        for (int v = 0; v < cfg_.vcus_per_host; ++v) {
            auto worker = std::make_unique<Worker>(
                worker_id++, WorkerType::Vcu, vcuWorkerCapacity());
            host.workers.push_back(std::move(worker));
        }
        hosts_.push_back(std::move(host));
    }
    // Bind after the host vector is stable (no more moves).
    for (auto &host : hosts_) {
        for (int v = 0; v < cfg_.vcus_per_host; ++v) {
            Worker *w = host.workers[static_cast<size_t>(v)].get();
            w->bindVcu(&host.vcu_health[static_cast<size_t>(v)]);
            w->attachObservability(&registry_, &trace_);
            all_workers.push_back(w);
        }
    }

    if (cfg_.use_consistent_hashing) {
        std::vector<int> ids;
        for (const Worker *w : all_workers)
            ids.push_back(w->id());
        ring_ = std::make_unique<ConsistentHashRing>(ids);
    }

    if (cfg_.use_binpack) {
        scheduler_ = std::make_unique<BinPackScheduler>(all_workers);
    } else {
        ResourceVector slot = cfg_.slot_bundle;
        if (slot.empty()) {
            // Default worst-case bundle: a 2160p two-pass MOT.
            slot = stepResourceNeed(
                makeMotStep(0, 0, 0, {3840, 2160},
                            wsva::video::codec::CodecType::VP9),
                cfg_.mapping);
        }
        scheduler_ = std::make_unique<SlotScheduler>(all_workers, slot);
    }
    scheduler_->attachMetrics(&registry_);
    // The segment-tree availability index returns the identical
    // first-fit pick in O(log n) instead of O(n). Health mutations
    // outside the worker (fault injection, repair drains) call
    // scheduler_->refresh() to keep it coherent.
    if (auto *bp = dynamic_cast<BinPackScheduler *>(scheduler_.get()))
        bp->enableIndex();

    submitted_counter_ = registry_.counterHandle("cluster.steps_submitted");
    completed_counter_ = registry_.counterHandle("cluster.steps_completed");
    retried_counter_ = registry_.counterHandle("cluster.steps_retried");
    failed_counter_ = registry_.counterHandle("cluster.steps_failed");

    // Seed the board so /statusz answers before the first rollup tick.
    if (cfg_.observability && cfg_.fleet_publish_every_ticks > 0)
        fleet_.publish(buildFleetHealth(clock_));
}

void
ClusterSim::submit(const TranscodeStep &step)
{
    backlog_.push_back(step);
    ++submitted_total_;
    ++metrics_.steps_submitted;
    submitted_counter_.inc();
    trackUpload(step, clock_);
}

void
ClusterSim::trackUpload(const TranscodeStep &step, double now)
{
    // Pre-allocate the upload's end-to-end span id at submission so
    // queue_wait/execute children can parent to it before the span
    // itself is recorded at terminal completion. The monitor is told
    // about every submission unconditionally: the enqueue timestamp
    // is what queue age reads from, and gating it on telemetry meant
    // a step submitted while tracing and SLO evaluation were dark
    // aged from the wrong epoch once either came back.
    uint64_t span_id = 0;
    if (tracer_->enabled() && spanSampled(step.id))
        span_id = tracer_->nextId();
    slo_.onSubmit(step.id, now, span_id, step.deadline_time);
}

bool
ClusterSim::spanSampled(uint64_t step_id) const
{
    return cfg_.span_sample_period <= 1 ||
           step_id % cfg_.span_sample_period == 0;
}

Worker *
ClusterSim::workerAt(int host, int vcu)
{
    return hosts_[static_cast<size_t>(host)]
        .workers[static_cast<size_t>(vcu)]
        .get();
}

Worker *
ClusterSim::workerByGid(int gid)
{
    return workerAt(gid / cfg_.vcus_per_host, gid % cfg_.vcus_per_host);
}

HostModel &
ClusterSim::hostOfGid(int gid)
{
    return hosts_[static_cast<size_t>(gid / cfg_.vcus_per_host)];
}

void
ClusterSim::maybeEnterRepair(HostModel &host, double now)
{
    if (host.in_repair ||
        host.fault_count < cfg_.failure.host_fault_threshold)
        return;
    if (!repairs_.tryEnter(host.id, now)) {
        // Repair cap reached: waitlist the host and retry when a
        // repair slot frees up (RepairDone).
        if (ev_->repair_waitlisted[static_cast<size_t>(host.id)] == 0) {
            ev_->repair_waitlisted[static_cast<size_t>(host.id)] = 1;
            ev_->repair_waiting.push_back(host.id);
        }
        return;
    }
    host.in_repair = true;
    repair_enter_[static_cast<size_t>(host.id)] = now;
    // Everything on the host is drained/disabled.
    for (size_t v = 0; v < host.vcu_health.size(); ++v) {
        host.vcu_health[v].markFaulted(now);
        Worker *w = host.workers[v].get();
        cancelCompletionEvent(w->id());
        auto aborted = w->abortAll();
        in_flight_count_ -= aborted.size();
        for (auto &step : aborted) {
            ++metrics_.steps_retried;
            ++host_retries_[static_cast<size_t>(host.id)];
            retried_counter_.inc();
            trace_.record(TraceEventType::StepRetried, now, host.id,
                          w->id(), step.id, step.video_id);
            backlog_.push_front(step);
        }
        scheduler_->refresh(*w);
    }
    ev_->queue.schedule(repairs_.completionTime(host.id),
                        SimEventType::RepairDone, host.id);
    ev_->work_added = true; // Aborted steps re-queued as retries.
}

void
ClusterSim::restoreHost(HostModel &host, double now)
{
    host.in_repair = false;
    host.fault_count = 0;
    ++metrics_.hosts_repaired;
    registry_.inc("cluster.hosts_repaired");
    double &entered = repair_enter_[static_cast<size_t>(host.id)];
    if (tracer_->enabled() && entered >= 0.0) {
        tracer_->recordSimSpan(
            "host_repair", "cluster", entered * 1e6, now * 1e6,
            host.id, /*parent=*/0, kProcessSimHosts, "host",
            static_cast<uint64_t>(host.id));
    }
    entered = -1.0;
    for (size_t v = 0; v < host.vcu_health.size(); ++v) {
        host.vcu_health[v] = VcuHealth{};
        // A quarantined worker sat out until this repair; close
        // its quarantine interval on the host lane.
        const int gid = host.workers[v]->id();
        double &quarantined =
            quarantine_enter_[static_cast<size_t>(gid)];
        if (tracer_->enabled() && quarantined >= 0.0) {
            tracer_->recordSimSpan(
                "quarantine", "cluster", quarantined * 1e6,
                now * 1e6, gid, /*parent=*/0, kProcessSimHosts,
                "worker", static_cast<uint64_t>(gid));
        }
        quarantined = -1.0;
        host.workers[v]->repairReset();
    }
}

void
ClusterSim::processOutcome(HostModel &host, Worker *w,
                           const StepOutcome &outcome, double now)
{
    // The operation and RNG-draw order here is part of the seeded
    // ledger the golden-ledger test pins.
    const int vcu_gid = w->id();
    const auto retryStep = [&](const TranscodeStep &step) {
        ++metrics_.steps_retried;
        ++host_retries_[static_cast<size_t>(host.id)];
        retried_counter_.inc();
        trace_.record(TraceEventType::StepRetried, now, host.id,
                      w->id(), step.id, step.video_id);
        backlog_.push_front(step);
    };
    // Worker execution interval on this worker's track, parented to
    // the upload's pre-allocated e2e span.
    const auto recordExec = [&](const StepOutcome &o, const char *name,
                                double end) {
        // The sampling check first: it spares unsampled steps (the
        // vast majority at bench scale) the hash lookup.
        if (!tracer_->enabled() || !spanSampled(o.step.id))
            return;
        const SloMonitor::Upload *up = slo_.find(o.step.id);
        if (up == nullptr || up->span_id == 0)
            return; // Upload not sampled for tracing.
        tracer_->recordSimSpan(
            name, "cluster", o.start_time * 1e6, end * 1e6,
            1 + w->id(), up->span_id, kProcessSim, "step", o.step.id,
            "video", o.step.video_id);
    };
    // Terminal completion: close the end-to-end upload span under
    // its pre-allocated id and settle the SLO clock.
    const auto finishUpload = [&](const StepOutcome &o) {
        const SloMonitor::Upload *up =
            tracer_->enabled() && spanSampled(o.step.id)
                ? slo_.find(o.step.id)
                : nullptr;
        if (up != nullptr && up->span_id != 0) {
            SpanRecord rec;
            rec.name = "upload";
            rec.category = "cluster";
            rec.id = up->span_id;
            rec.clock = SpanClock::Sim;
            rec.begin_us = up->submit_time * 1e6;
            rec.end_us = o.finish_time * 1e6;
            rec.track = 0;
            rec.process = kProcessSim;
            rec.arg1_key = "step";
            rec.arg1 = o.step.id;
            rec.arg2_key = "video";
            rec.arg2 = o.step.video_id;
            tracer_->record(rec);
        }
        slo_.onComplete(o.step.id, o.finish_time);
    };

    if (outcome.ok)
        recordExec(outcome, "execute", outcome.finish_time);
    else
        recordExec(outcome, "execute_failed", now);
    if (!outcome.ok) {
        // Hardware failure: retry at the cluster level; with the
        // mitigation the worker aborts all of its other in-flight
        // work too.
        ++metrics_.steps_failed;
        failed_counter_.inc();
        trace_.record(TraceEventType::StepFailed, now, host.id,
                      w->id(), outcome.step.id, outcome.step.video_id);
        retryStep(outcome.step);
        if (cfg_.failure.abort_on_failure) {
            auto aborted = w->abortAll();
            in_flight_count_ -= aborted.size();
            for (auto &step : aborted)
                retryStep(step);
        }
        return;
    }
    if (outcome.corrupt) {
        trace_.record(TraceEventType::StepCorrupt, now, host.id,
                      w->id(), outcome.step.id, outcome.step.video_id);
        const bool detected =
            rng_.bernoulli(cfg_.failure.integrity_detect_prob);
        if (detected) {
            ++metrics_.corrupt_detected;
            registry_.inc("cluster.corrupt_detected");
            blast_.recordDetectedCorruption(outcome.step.video_id,
                                            vcu_gid);
            retryStep(outcome.step);
            if (cfg_.failure.abort_on_failure) {
                auto aborted = w->abortAll();
                in_flight_count_ -= aborted.size();
                for (auto &step : aborted)
                    retryStep(step);
            }
            ++host.fault_count;
        } else {
            ++metrics_.corrupt_escaped;
            ++metrics_.steps_completed;
            ++completed_total_;
            ++host_completions_[static_cast<size_t>(host.id)];
            registry_.inc("cluster.corrupt_escaped");
            completed_counter_.inc();
            trace_.record(TraceEventType::StepCompleted, now, host.id,
                          w->id(), outcome.step.id,
                          outcome.step.video_id);
            metrics_.corrupt_pixels += outcome.step.outputPixels();
            blast_.recordEscapedCorruption(outcome.step.video_id,
                                           vcu_gid);
            finishUpload(outcome);
        }
        return;
    }
    ++metrics_.steps_completed;
    ++completed_total_;
    ++host_completions_[static_cast<size_t>(host.id)];
    completed_counter_.inc();
    trace_.record(TraceEventType::StepCompleted, now, host.id,
                  w->id(), outcome.step.id, outcome.step.video_id);
    metrics_.output_pixels += outcome.step.outputPixels();
    finishUpload(outcome);
}

void
ClusterSim::collectWorker(HostModel &host, Worker *w, double now)
{
    auto outcomes = w->collectFinished(now);
    in_flight_count_ -= outcomes.size();
    for (auto &outcome : outcomes)
        processOutcome(host, w, outcome, now);
}

void
ClusterSim::scheduleBacklog(double now)
{
    // Head-of-line scheduling against the availability cache; stop
    // at the first request nothing can take (it blocks the queue, as
    // the paper's per-pool FIFO service queue does). Deadline steps
    // jump the line via the dispatch queue's EDF lane, and a blocked
    // deadline step whose slack is running out may shed batch work to
    // make room instead of waiting.
    if (dispatch_paused_)
        return; // Quarantined: queued work waits to be expelled.
    prof::ProfScope prof_dispatch(clusterPhases().dispatch);
    maybeUnpark(now);
    size_t deferrals = 0;
    while (!backlog_.empty() && deferrals <= backlog_.size()) {
        const TranscodeStep step = backlog_.front();
        const ResourceVector need = stepResourceNeed(step, cfg_.mapping);

        // Blast-radius reduction: consistent hashing keeps one
        // video's chunks on a small affinity set. A chunk whose set
        // is merely *busy* waits (rotates to the back) rather than
        // spilling; it spills to any worker only when the whole set
        // is dead (disabled/quarantined).
        Worker *w = nullptr;
        if (ring_ != nullptr) {
            bool set_alive = false;
            for (int wid : ring_->affinitySet(step.video_id,
                                              cfg_.affinity_set_size)) {
                Worker *candidate = workerAt(wid / cfg_.vcus_per_host,
                                             wid % cfg_.vcus_per_host);
                const bool dead =
                    candidate->refused() ||
                    (candidate->vcu() != nullptr &&
                     candidate->vcu()->disabled);
                set_alive |= !dead;
                if (candidate->canFit(need)) {
                    w = candidate;
                    break;
                }
            }
            if (w == nullptr && set_alive) {
                backlog_.pop_front();
                backlog_.push_back(step);
                ++deferrals;
                continue;
            }
        }
        if (w == nullptr) {
            // Availability-index time attributed separately from the
            // rest of dispatch (the ROADMAP's sharding question).
            // Sampled: picks run per placement (millions at fleet
            // scale), so a full scope's clock reads would dominate
            // the profiler's own overhead budget.
            prof::ProfScopeSampled prof_index(
                clusterPhases().dispatch_index, 16);
            w = scheduler_->pick(need);
        }
        if (w == nullptr && step.hasDeadline() &&
            cfg_.deadline.shed_enabled) {
            // Projected slack if the step started right now. While it
            // is comfortable the step just waits its turn; once it
            // drops under the guard, displace batch work.
            double service = stepServiceSeconds(step, cfg_.mapping);
            if (!cfg_.numa_aware)
                service *= cfg_.numa_penalty_factor;
            const double slack = step.deadline_time - now - service;
            if (slack < cfg_.deadline.slack_guard_seconds)
                w = shedForDeadline(step, need, now);
        }
        if (w == nullptr)
            break;

        const int gid = w->id();

        // A restarted worker (post-abort) golden-screens its VCU
        // before taking work; a failed screen quarantines it until
        // the host is repaired (Section 4.4).
        if (cfg_.failure.golden_screening && w->needsScreen()) {
            if (!w->goldenScreen()) {
                w->setRefused(true);
                ++metrics_.workers_quarantined;
                registry_.inc("cluster.workers_quarantined");
                trace_.record(TraceEventType::WorkerQuarantined, now,
                              gid / cfg_.vcus_per_host, gid);
                // Open the quarantine interval; it closes into a sim
                // span when the host comes back from repair.
                quarantine_enter_[static_cast<size_t>(gid)] = now;
                continue; // Re-pick; the worker is now skipped.
            }
            w->clearScreen();
        }

        backlog_.pop_front();
        double service = stepServiceSeconds(step, cfg_.mapping);
        if (!cfg_.numa_aware)
            service *= cfg_.numa_penalty_factor;
        const ResourceVector reservation =
            scheduler_->reservationFor(need);
        w->assign(step, reservation, now, service);
        ++in_flight_count_;
        updateCompletionEvent(w);
        // Remember where batch work landed so a future shed can find
        // a preemption victim without scanning the fleet.
        if (step.priority == Priority::Batch &&
            cfg_.deadline.shed_enabled &&
            cfg_.deadline.preempt_running_batch &&
            preempt_candidate_flag_[static_cast<size_t>(gid)] == 0) {
            preempt_candidate_flag_[static_cast<size_t>(gid)] = 1;
            preempt_candidates_.push_back(gid);
        }
        if (cfg_.track_blast_radius)
            blast_.recordChunk(step.video_id, gid);
        if (tracer_->enabled() && spanSampled(step.id)) {
            // Placement latency: submission (or requeue-covering
            // original submission) to this assignment, on the
            // assigned worker's track.
            const SloMonitor::Upload *up = slo_.find(step.id);
            if (up != nullptr && up->span_id != 0) {
                tracer_->recordSimSpan(
                    "queue_wait", "cluster", up->submit_time * 1e6,
                    now * 1e6, 1 + gid, up->span_id, kProcessSim,
                    "step", step.id, "video", step.video_id);
            }
        }
    }
}

Worker *
ClusterSim::shedForDeadline(const TranscodeStep &step,
                            const ResourceVector &need, double now)
{
    // Load shedding, two rungs. First park all queued batch work:
    // that frees no resources immediately but stops dispatch from
    // backfilling capacity the live lane is about to need. Parked
    // steps move to the shed lot — out of contention, still in the
    // conservation ledger.
    const size_t parked = backlog_.parkBatch();
    if (parked > 0) {
        metrics_.steps_shed += parked;
        registry_.inc("cluster.steps_shed", parked);
        trace_.record(TraceEventType::StepShed, now, -1, -1, step.id,
                      step.video_id);
        last_shed_time_ = now;
    }

    // Second rung: preempt batch steps already running. Candidates
    // are the workers batch work was assigned to, oldest first; each
    // is either stale (its batch already drained — drop it), unable
    // to host this step even emptied of batch (keep it for a smaller
    // request), or the victim.
    if (!cfg_.deadline.preempt_running_batch)
        return nullptr;
    size_t examined = 0;
    const size_t limit = preempt_candidates_.size();
    while (!preempt_candidates_.empty() && examined < limit) {
        ++examined;
        const int gid = preempt_candidates_.front();
        preempt_candidates_.pop_front();
        Worker *w = workerByGid(gid);
        if (w->batchRunning() == 0) {
            preempt_candidate_flag_[static_cast<size_t>(gid)] = 0;
            continue;
        }
        if (!w->canFitWithBatchPreempted(need)) {
            preempt_candidates_.push_back(gid);
            continue;
        }
        auto preempted = w->preemptBatch();
        preempt_candidate_flag_[static_cast<size_t>(gid)] = 0;
        in_flight_count_ -= preempted.size();
        for (const auto &victim : preempted) {
            backlog_.parkStep(victim);
            trace_.record(TraceEventType::StepShed, now,
                          gid / cfg_.vcus_per_host, gid, victim.id,
                          victim.video_id);
        }
        metrics_.steps_shed += preempted.size();
        metrics_.steps_preempted += preempted.size();
        registry_.inc("cluster.steps_shed", preempted.size());
        registry_.inc("cluster.steps_preempted", preempted.size());
        last_shed_time_ = now;
        // preemptBatch released capacity and (via the availability
        // listener) updated the scheduler index; the worker's single
        // completion event must follow its new earliest finish.
        updateCompletionEvent(w);
        return w;
    }
    return nullptr;
}

void
ClusterSim::maybeUnpark(double now)
{
    if (backlog_.shedSize() == 0)
        return;
    // Hysteresis: release only once the live crunch has demonstrably
    // passed — no deadline work waiting and a calm period since the
    // last shed — so a surge still ramping does not thrash batch
    // steps between workers and the shed lot.
    if (backlog_.deadlineSize() > 0)
        return;
    if (now - last_shed_time_ < cfg_.deadline.release_after_seconds)
        return;
    // The released steps land in the FIFO lane and the dispatch loop
    // right below this call picks them up — no event rescheduling
    // needed.
    const size_t released = backlog_.unparkAll();
    registry_.inc("cluster.steps_unshed", released);
}

size_t
ClusterSim::inFlightSteps() const
{
    // Maintained incrementally at every assign/collect/abort, so the
    // per-event-batch conservation audit and the fleet rollup are
    // O(1) instead of a fleet-wide scan. Debug builds cross-check
    // against the scan in checkConservation().
    return static_cast<size_t>(in_flight_count_);
}

ConservationSnapshot
ClusterSim::conservation() const
{
    ConservationSnapshot snap;
    snap.submitted = submitted_total_;
    snap.completed = completed_total_;
    snap.failed_terminal = failed_terminal_total_;
    snap.in_flight = inFlightSteps();
    snap.backlog = backlog_.size();
    snap.shed = backlog_.shedSize();
    snap.rerouted_away = rerouted_away_total_;
    return snap;
}

std::vector<TranscodeStep>
ClusterSim::expelBacklog()
{
    auto steps = backlog_.drainAll();
    if (steps.empty())
        return steps;
    rerouted_away_total_ += steps.size();
    registry_.inc("cluster.steps_rerouted_away", steps.size());
    // Cancel the SLO tracking entries: the steps will re-enter
    // tracking in whichever cluster receives them. Leaving them here
    // would leak the in-flight map and age the queue forever.
    for (const auto &step : steps)
        slo_.onCancel(step.id);
    return steps;
}

void
ClusterSim::forceSilentFaults(double speed_factor)
{
    WSVA_ASSERT(speed_factor > 0.0, "speed factor must be positive");
    for (auto &host : hosts_) {
        if (host.in_repair)
            continue;
        for (size_t v = 0; v < host.vcu_health.size(); ++v) {
            VcuHealth &health = host.vcu_health[v];
            if (health.disabled || health.silent_fault)
                continue;
            health.silent_fault = true;
            health.speed_factor = speed_factor;
            registry_.inc("cluster.silent_faults");
            trace_.record(TraceEventType::SilentFaultInjected, clock_,
                          host.id,
                          host.id * cfg_.vcus_per_host +
                              static_cast<int>(v));
        }
    }
}

void
ClusterSim::checkConservation(double now)
{
    // The invariant behind all the failure accounting: every step
    // ever submitted is terminally done, terminally failed, running,
    // or queued. This runs regardless of cfg_.observability — it is
    // an audit of the simulator itself, and it is exactly what makes
    // the fault/retry counter bugs a class that cannot silently
    // regress. Debug builds abort on violation; release builds count
    // and warn so a long bench run still finishes with evidence.
    prof::ProfScope prof_audit(clusterPhases().audit);
    const ConservationSnapshot snap = conservation();
    ++metrics_.conservation_checks;
#ifndef NDEBUG
    // Cross-check the incremental in-flight counter against a full
    // worker scan — exactly the O(workers) cost the counter removes,
    // so only on fleets small enough for tests to afford it.
    if (totalVcus() <= 2048) {
        size_t scanned = 0;
        for (const auto &host : hosts_) {
            for (const auto &w : host.workers)
                scanned += w->runningSteps();
        }
        WSVA_ASSERT(scanned == static_cast<size_t>(in_flight_count_),
                    "in-flight counter drift at t=%.3f: scan %zu vs "
                    "counter %llu",
                    now, scanned,
                    static_cast<unsigned long long>(in_flight_count_));
    }
#endif
    if (!snap.holds()) {
        ++metrics_.conservation_violations;
        registry_.inc("cluster.conservation_violations");
        warn("step conservation violated at t=%.3f: submitted %llu != "
             "completed %llu + failed %llu + in-flight %llu + "
             "backlog %llu + shed %llu + rerouted %llu",
             now, static_cast<unsigned long long>(snap.submitted),
             static_cast<unsigned long long>(snap.completed),
             static_cast<unsigned long long>(snap.failed_terminal),
             static_cast<unsigned long long>(snap.in_flight),
             static_cast<unsigned long long>(snap.backlog),
             static_cast<unsigned long long>(snap.shed),
             static_cast<unsigned long long>(snap.rerouted_away));
#ifndef NDEBUG
        WSVA_ASSERT(false, "step conservation violated at t=%.3f", now);
#endif
    }
}

void
ClusterSim::sampleTick(double now)
{
    // Utilization sampling across usable workers.
    double enc = 0;
    double dec = 0;
    double cpu = 0;
    int n = 0;
    for (auto &host : hosts_) {
        if (host.in_repair)
            continue;
        for (size_t v = 0; v < host.workers.size(); ++v) {
            if (host.vcu_health[v].disabled)
                continue;
            const Worker *w = host.workers[v].get();
            enc += w->dimensionUtilization(utilDims().enc);
            dec += w->dimensionUtilization(utilDims().dec);
            cpu += w->dimensionUtilization(utilDims().host_cpu);
            ++n;
        }
    }
    if (n > 0) {
        enc_util_samples_.add(enc / n);
        dec_util_samples_.add(dec / n);
        cpu_util_samples_.add(cpu / n);
    }

    if (!registry_.enabled())
        return;
    if (n > 0) {
        registry_.sample("util.encoder", now, enc / n);
        registry_.sample("util.decoder", now, dec / n);
        registry_.sample("util.host_cpu", now, cpu / n);
    }
    registry_.sample("backlog", now,
                     static_cast<double>(backlog_.size()));
    registry_.sample("in_flight", now,
                     static_cast<double>(inFlightSteps()));
    if (backlog_.shedSize() > 0 || metrics_.steps_shed > 0)
        registry_.sample("shed", now,
                         static_cast<double>(backlog_.shedSize()));
    registry_.sample("steps_retried", now,
                     static_cast<double>(metrics_.steps_retried));
    registry_.sample("workers_quarantined", now,
                     static_cast<double>(metrics_.workers_quarantined));
    registry_.sample("hosts_in_repair", now,
                     static_cast<double>(repairs_.inRepair()));
}

void
ClusterSim::pullArrivals(const ArrivalFn &arrivals, double now,
                         double dt)
{
    for (auto &step : arrivals(now, dt)) {
        backlog_.push_back(step);
        ++submitted_total_;
        ++metrics_.steps_submitted;
        submitted_counter_.inc();
        trackUpload(step, now);
    }
}

void
ClusterSim::publishRollup(double now)
{
    prof::ProfScope prof_publish(clusterPhases().publish);
    fleet_.publish(buildFleetHealth(now));
    if (registry_.enabled()) {
        fleet_.exportGauges(registry_);
        // Continuous profiling rides the same rollup cadence so
        // profile.* gauges age no slower than fleet health does.
        auto &profiler = prof::ProfileRegistry::instance();
        if (profiler.enabled())
            profiler.exportGauges(registry_);
    }
}

ClusterMetrics
ClusterSim::finishRun(double start, double now)
{
    // Publish a final rollup so /statusz reflects the drained state
    // even when the horizon fell between publish ticks.
    if (cfg_.observability && cfg_.fleet_publish_every_ticks > 0)
        publishRollup(now);

    metrics_.sim_seconds = now - start;
    metrics_.mpix_per_vcu = metrics_.output_pixels /
                            (metrics_.sim_seconds * totalVcus()) / 1e6;
    metrics_.encoder_utilization = enc_util_samples_.mean();
    metrics_.decoder_utilization = dec_util_samples_.mean();
    metrics_.host_cpu_utilization = cpu_util_samples_.mean();
    metrics_.sched_placed = scheduler_->stats().placed;
    metrics_.sched_rejected = scheduler_->stats().rejected;
    metrics_.backlog_remaining = backlog_.size();
    // Work still on workers at the horizon used to vanish from the
    // ledger: not completed, not failed, not backlog. Surface it.
    metrics_.steps_in_flight = inFlightSteps();
    metrics_.shed_remaining = backlog_.shedSize();
    metrics_.deadline_completions = slo_.deadlineTracked();
    metrics_.deadline_misses = slo_.deadlineMissed();

    if (registry_.enabled()) {
        blast_.exportTo(registry_);
        registry_.setGauge("cluster.backlog_remaining",
                           static_cast<double>(backlog_.size()));
        registry_.setGauge(
            "cluster.steps_in_flight",
            static_cast<double>(metrics_.steps_in_flight));
        registry_.setGauge("cluster.encoder_utilization",
                           metrics_.encoder_utilization);
        registry_.setGauge("cluster.decoder_utilization",
                           metrics_.decoder_utilization);
        registry_.setGauge("cluster.host_cpu_utilization",
                           metrics_.host_cpu_utilization);
        registry_.setGauge("cluster.mpix_per_vcu",
                           metrics_.mpix_per_vcu);
    }
    return metrics_;
}

FleetHealthSnapshot
ClusterSim::buildFleetHealth(double now) const
{
    FleetHealthSnapshot snap;
    snap.sim_time = now;
    snap.tick = ticks_;
    snap.vcus_per_host = cfg_.vcus_per_host;
    snap.hosts_per_rack =
        cfg_.hosts_per_rack > 0 ? cfg_.hosts_per_rack : 1;

    snap.hosts.reserve(hosts_.size());
    double cluster_util = 0.0;
    for (const auto &host : hosts_) {
        NodeHealth node;
        node.id = host.id;
        double util = 0.0;
        for (size_t v = 0; v < host.workers.size(); ++v) {
            const Worker *w = host.workers[v].get();
            const VcuHealth &health = host.vcu_health[v];
            node.counts.add(classifyWorker(host.in_repair,
                                           w->refused(),
                                           health.disabled,
                                           health.silent_fault));
            util += w->dimensionUtilization(utilDims().enc);
        }
        if (!host.workers.empty())
            node.encoder_utilization =
                util / static_cast<double>(host.workers.size());
        node.retries = host_retries_[static_cast<size_t>(host.id)];
        node.completions =
            host_completions_[static_cast<size_t>(host.id)];
        node.retry_rate = retryRate(node.retries, node.completions);
        snap.cluster.merge(node.counts);
        cluster_util += util;
        snap.hosts.push_back(node);
    }

    // Aggregate hosts into racks (rack id = host id / hosts_per_rack).
    // Hosts are equal-sized, so rack utilization is a plain mean of
    // its hosts' means.
    const int rack_count =
        (cfg_.hosts + snap.hosts_per_rack - 1) / snap.hosts_per_rack;
    snap.racks.resize(static_cast<size_t>(rack_count));
    std::vector<int> rack_hosts(static_cast<size_t>(rack_count), 0);
    for (const auto &host : snap.hosts) {
        const size_t r =
            static_cast<size_t>(host.id / snap.hosts_per_rack);
        NodeHealth &rack = snap.racks[r];
        rack.id = static_cast<int>(r);
        rack.counts.merge(host.counts);
        rack.encoder_utilization += host.encoder_utilization;
        rack.retries += host.retries;
        rack.completions += host.completions;
        ++rack_hosts[r];
    }
    uint64_t retries = 0;
    uint64_t completions = 0;
    for (size_t r = 0; r < snap.racks.size(); ++r) {
        NodeHealth &rack = snap.racks[r];
        if (rack_hosts[r] > 0)
            rack.encoder_utilization /= rack_hosts[r];
        rack.retry_rate = retryRate(rack.retries, rack.completions);
        retries += rack.retries;
        completions += rack.completions;
    }

    if (totalVcus() > 0)
        snap.encoder_utilization =
            cluster_util / static_cast<double>(totalVcus());
    snap.retries = retries;
    snap.completions = completions;
    snap.retry_rate = retryRate(retries, completions);
    snap.backlog = backlog_.size();
    snap.in_flight = inFlightSteps();
    snap.shed = backlog_.shedSize();

    // SLO surface: the monitor is not thread-safe, so this read is
    // legal only from the sim thread — which is where
    // buildFleetHealth runs; scrape threads read the published board.
    snap.slo_alert_active = slo_.alertActive();
    snap.slo_burn_rate = slo_.burnRate();
    snap.slo_window_p99 = slo_.windowP99();
    snap.slo_queue_age = slo_.queueAge(now);
    snap.deadline_tracked = slo_.deadlineTracked();
    snap.deadline_miss_rate = slo_.windowDeadlineMissRate();
    return snap;
}

void
ClusterSim::attachDebugServer(wsva::DebugServer &server,
                              const std::string &build_info)
{
    wsva::ZPageSources sources;
    sources.metrics = &registry_;
    sources.tracer = tracer_;
    sources.build_info = build_info;
    sources.export_schema_version = kExportSchemaVersion;
    // The handlers run on scrape threads while run() ticks on the sim
    // thread, so they may only read the double-buffered board (and
    // immutable config captured by value) — never slo_ or clock_.
    const FleetHealthBoard *board = &fleet_;
    sources.statusz = [board] {
        const auto snap = board->snapshot();
        if (snap == nullptr)
            return std::string(
                "no fleet-health rollup published yet\n");
        return snap->toText();
    };
    const int hosts = cfg_.hosts;
    const int total_vcus = totalVcus();
    sources.healthz_extra = [board, hosts, total_vcus] {
        const auto snap = board->snapshot();
        return strformat(
            "\"hosts\": %d, \"total_vcus\": %d, "
            "\"fleet_publishes\": %llu, \"fleet_healthy\": %llu",
            hosts, total_vcus,
            static_cast<unsigned long long>(board->publishes()),
            static_cast<unsigned long long>(
                snap != nullptr ? snap->cluster.healthy : 0));
    };
    wsva::registerZPages(server, sources);
}

std::string
ClusterSim::exportJson(size_t max_trace_events) const
{
    const ConservationSnapshot snap = conservation();
    // Schema version history lives on kExportSchemaVersion — the one
    // place the number is defined.
    std::string out = strformat(
        "{\n\"schema_version\": %d,\n\"metrics\": ",
        kExportSchemaVersion);
    out += registry_.toJson();
    out += ",\n\"trace\": ";
    out += trace_.toJson(max_trace_events);
    out += ",\n\"slo\": ";
    out += slo_.exportJson(clock_);
    out += ",\n\"build\": ";
    out += buildInfoJson(kExportSchemaVersion);
    out += ",\n\"profile\": ";
    out += prof::ProfileRegistry::instance().toJson();
    out += ",\n\"fleet_health\": ";
    // Reuse the published (double-buffered) rollup rather than
    // re-scanning every worker on each export; a live build is the
    // fallback only when publishing is off and no snapshot exists.
    const auto fleet_snap = fleet_.snapshot();
    out += fleet_snap != nullptr ? fleet_snap->toJson()
                                 : buildFleetHealth(clock_).toJson();
    out += strformat(
        ",\n\"conservation\": {\"submitted\": %llu, "
        "\"completed\": %llu, \"failed_terminal\": %llu, "
        "\"in_flight\": %llu, \"backlog\": %llu, \"shed\": %llu, "
        "\"rerouted_away\": %llu, \"holds\": %s}\n}",
        static_cast<unsigned long long>(snap.submitted),
        static_cast<unsigned long long>(snap.completed),
        static_cast<unsigned long long>(snap.failed_terminal),
        static_cast<unsigned long long>(snap.in_flight),
        static_cast<unsigned long long>(snap.backlog),
        static_cast<unsigned long long>(snap.shed),
        static_cast<unsigned long long>(snap.rerouted_away),
        snap.holds() ? "true" : "false");
    return out;
}

} // namespace wsva::cluster
