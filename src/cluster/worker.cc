#include "cluster/worker.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace wsva::cluster {

Worker::Worker(int id, WorkerType type, ResourceVector capacity)
    : id_(id), type_(type), capacity_(std::move(capacity)),
      available_(capacity_)
{
}

bool
Worker::goldenScreen() const
{
    if (vcu_ == nullptr)
        return true; // CPU workers have nothing to screen.
    return !vcu_->disabled && !vcu_->silent_fault;
}

bool
Worker::canFit(const ResourceVector &need) const
{
    if (refused_)
        return false;
    if (vcu_ != nullptr && vcu_->disabled)
        return false;
    return available_.fits(need);
}

void
Worker::assign(const TranscodeStep &step, const ResourceVector &need,
               double now, double service_seconds)
{
    WSVA_ASSERT(canFit(need), "assigning step %lu beyond capacity",
                static_cast<unsigned long>(step.id));
    double factor = 1.0;
    if (vcu_ != nullptr)
        factor = vcu_->speed_factor;
    available_.subtract(need);
    WSVA_ASSERT(available_.nonNegative(), "negative availability");
    running_.push_back({step, need, now, now + service_seconds * factor});
    if (step.priority == Priority::Batch)
        ++batch_running_;
    notifyAvailability();
    if (trace_ != nullptr) {
        trace_->record(TraceEventType::StepScheduled, now, -1, id_,
                       step.id, step.video_id);
    }
}

void
Worker::collectFinished(double now, std::vector<StepOutcome> &out)
{
    out.clear();
    const bool dead = vcu_ != nullptr && vcu_->disabled;
    const bool corrupting = vcu_ != nullptr && vcu_->silent_fault;
    for (auto it = running_.begin(); it != running_.end();) {
        const bool finished = it->finish_time <= now;
        if (finished || dead) {
            // A step whose finish time precedes the fault completed
            // before the device died: its output exists and must not
            // be failed/retried (that skewed steps_retried and
            // output_pixels). Only work truly cut short fails.
            const bool failed =
                dead && it->finish_time >= vcu_->fault_time;
            StepOutcome outcome;
            outcome.step = it->step;
            outcome.ok = !failed;
            outcome.corrupt = corrupting && !failed;
            outcome.start_time = it->start_time;
            outcome.finish_time = failed ? now : it->finish_time;
            out.push_back(outcome);
            available_.add(it->need);
            if (it->step.priority == Priority::Batch)
                --batch_running_;
            if (metrics_ != nullptr && !failed) {
                // Static name: one completion per step makes this a
                // hot path; don't rebuild the string each time.
                static const std::string kServiceSeconds =
                    "worker.service_seconds";
                metrics_->observe(kServiceSeconds,
                                  outcome.finish_time - it->start_time,
                                  0.0, 600.0, 60);
            }
            it = running_.erase(it);
        } else {
            ++it;
        }
    }
    if (!out.empty())
        notifyAvailability();
}

std::vector<TranscodeStep>
Worker::abortAll()
{
    std::vector<TranscodeStep> aborted;
    for (const auto &r : running_) {
        aborted.push_back(r.step);
        available_.add(r.need);
    }
    running_.clear();
    batch_running_ = 0;
    needs_screen_ = true;
    if (!aborted.empty())
        notifyAvailability();
    return aborted;
}

bool
Worker::canFitWithBatchPreempted(const ResourceVector &need) const
{
    if (batch_running_ == 0)
        return false; // Nothing to preempt; canFit() already said no.
    if (refused_ || (vcu_ != nullptr && vcu_->disabled))
        return false;
    ResourceVector hypothetical = available_;
    for (const auto &r : running_) {
        if (r.step.priority == Priority::Batch)
            hypothetical.add(r.need);
    }
    return hypothetical.fits(need);
}

std::vector<TranscodeStep>
Worker::preemptBatch()
{
    std::vector<TranscodeStep> preempted;
    for (auto it = running_.begin(); it != running_.end();) {
        if (it->step.priority == Priority::Batch) {
            preempted.push_back(it->step);
            available_.add(it->need);
            it = running_.erase(it);
        } else {
            ++it;
        }
    }
    WSVA_ASSERT(batch_running_ == preempted.size(),
                "batch-running count drift: %zu tracked vs %zu found",
                batch_running_, preempted.size());
    batch_running_ = 0;
    if (!preempted.empty())
        notifyAvailability();
    return preempted;
}

void
Worker::repairReset()
{
    WSVA_ASSERT(running_.empty(), "repair reset with work in flight");
    available_ = capacity_;
    needs_screen_ = false;
    refused_ = false;
    notifyAvailability();
}

double
Worker::utilization() const
{
    ResourceVector used = capacity_;
    used.subtract(available_);
    return used.maxUtilizationVs(capacity_);
}

double
Worker::dimensionUtilization(uint16_t dim) const
{
    const double cap = capacity_.get(dim);
    if (cap <= 0.0)
        return 0.0;
    return (cap - available_.get(dim)) / cap;
}

ResourceVector
vcuWorkerCapacity(uint64_t dram_bytes, double host_cpu_millicores,
                  double sw_decode_millicores)
{
    // Section 3.3.3: "each VCU has 3,000 millidecode cores and
    // 10,000 milliencode cores available".
    ResourceVector cap;
    cap.set(kResDecodeMillicores, 3000);
    cap.set(kResEncodeMillicores, 10000);
    cap.set(kResDramBytes, static_cast<double>(dram_bytes));
    cap.set(kResHostCpuMillicores, host_cpu_millicores);
    cap.set(kResSwDecodeMillicores, sw_decode_millicores);
    return cap;
}

} // namespace wsva::cluster
