#include "cluster/worker.h"

#include <algorithm>

#include "common/logging.h"

namespace wsva::cluster {

Worker::Worker(int id, ResourceVector capacity)
    : id_(id), capacity_(std::move(capacity)), available_(capacity_)
{
}

void
Worker::markFaulted(double now)
{
    health_.disabled = true;
    health_.fault_time = now;
    notifyAvailability();
}

void
Worker::markSilentFault(double speed_factor)
{
    health_.silent_fault = true;
    health_.speed_factor = speed_factor;
}

bool
Worker::goldenScreen() const
{
    return !health_.disabled && !health_.silent_fault;
}

bool
Worker::canFit(const ResourceVector &need) const
{
    return usable() && available_.fits(need);
}

void
Worker::assign(const TranscodeStep &step, const ResourceVector &need,
               double now, double service_seconds)
{
    WSVA_ASSERT(canFit(need), "assigning step %lu beyond capacity",
                static_cast<unsigned long>(step.id));
    available_.subtract(need);
    WSVA_ASSERT(available_.nonNegative(), "negative availability");
    running_.push_back(
        {step, need, now, now + service_seconds * health_.speed_factor});
    if (step.priority == Priority::Batch)
        ++batch_running_;
    notifyAvailability();
}

void
Worker::collectFinished(double now, std::vector<StepOutcome> &out)
{
    out.clear();
    const bool dead = health_.disabled;
    const bool corrupting = health_.silent_fault;
    for (auto it = running_.begin(); it != running_.end();) {
        const bool finished = it->finish_time <= now;
        if (finished || dead) {
            // A step whose finish time precedes the fault completed
            // before the device died: its output exists and must not
            // be failed/retried (that skewed steps_retried and
            // output_pixels). Only work truly cut short fails.
            const bool failed =
                dead && it->finish_time >= health_.fault_time;
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
    if (!usable())
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
    health_ = VcuHealth{};
    needs_screen_ = false;
    refused_ = false;
    notifyAvailability();
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
    cap.set(kDimDecodeMillicores, 3000);
    cap.set(kDimEncodeMillicores, 10000);
    cap.set(kDimDramBytes, static_cast<double>(dram_bytes));
    cap.set(kDimHostCpuMillicores, host_cpu_millicores);
    cap.set(kDimSwDecodeMillicores, sw_decode_millicores);
    return cap;
}

} // namespace wsva::cluster
