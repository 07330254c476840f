/**
 * @file
 * HLS-flavored pipeline modeling primitives.
 *
 * The paper's encoder core was written in C++ for high-level
 * synthesis (Catapult), with pipeline stages decoupled by FIFOs and
 * full backpressure (Section 3.2). This module provides the same
 * abstractions for *timing* modeling: a bounded FIFO channel and a
 * multi-stage pipeline simulator that computes item completion times
 * under per-stage service times, FIFO capacities, and backpressure.
 *
 * The simulator uses the standard pipeline recurrence: an item can
 * start at a stage when (a) it has arrived from the previous stage,
 * (b) the stage has finished the previous item, and (c) there is
 * space in the FIFO toward the next stage (backpressure). A FIFO
 * slot is freed when the downstream stage *starts* (pops) an item,
 * not when it finishes servicing it — constraining on downstream
 * finish would overstate stalls and total cycles for deep or
 * unbalanced pipelines.
 */

#ifndef WSVA_VCU_HLSIM_H
#define WSVA_VCU_HLSIM_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/logging.h"

namespace wsva {
class Tracer;
}

namespace wsva::vcu {

/** Bounded FIFO channel with occupancy accounting (ac_channel-like). */
template <typename T>
class Channel
{
  public:
    explicit Channel(size_t capacity, std::string name = "chan")
        : capacity_(capacity), name_(std::move(name))
    {
        WSVA_ASSERT(capacity >= 1, "channel needs capacity >= 1");
    }

    bool canPush() const { return fifo_.size() < capacity_; }
    bool canPop() const { return !fifo_.empty(); }
    size_t size() const { return fifo_.size(); }
    size_t capacity() const { return capacity_; }
    const std::string &name() const { return name_; }

    /** Push; counts a stall event when the channel is full. */
    bool
    push(const T &item)
    {
        if (!canPush()) {
            ++push_stalls_;
            return false;
        }
        fifo_.push_back(item);
        return true;
    }

    /** Pop; the caller must check canPop(). */
    T
    pop()
    {
        WSVA_ASSERT(canPop(), "pop from empty channel '%s'", name_.c_str());
        T item = fifo_.front();
        fifo_.pop_front();
        return item;
    }

    uint64_t pushStalls() const { return push_stalls_; }

  private:
    size_t capacity_;
    std::string name_;
    std::deque<T> fifo_;
    uint64_t push_stalls_ = 0;
};

/** One pipeline stage: a name and a FIFO depth toward the next stage. */
struct StageSpec
{
    std::string name;
    size_t fifo_depth = 4; //!< Capacity of the FIFO after this stage.
};

/** Per-stage result statistics from a pipeline simulation. */
struct StageStats
{
    std::string name;
    uint64_t busy_cycles = 0;     //!< Cycles spent servicing items.
    uint64_t stall_cycles = 0;    //!< Cycles blocked by backpressure.
    double utilization = 0.0;     //!< busy / total.
};

/** Result of simulating a work list through the pipeline. */
struct PipelineResult
{
    uint64_t total_cycles = 0;
    std::vector<StageStats> stages;
    double throughput_items_per_cycle = 0.0;
};

/**
 * Deterministic multi-stage pipeline timing simulation.
 *
 * @param stages Stage specifications (order = dataflow order).
 * @param service_cycles service_cycles[s][i] = cycles stage s spends
 *        on item i. All rows must have the same length.
 * @param tracer Optional span sink (not owned). When set and enabled,
 *        every (stage, item) occupancy interval is recorded as a
 *        sim-domain span — timestamps in cycles, one track per stage
 *        on the hlsim process lane — so Perfetto shows the macroblock
 *        pipeline's fill, drain, and backpressure bubbles. Cycle
 *        timings are identical with and without a tracer.
 */
PipelineResult simulatePipeline(
    const std::vector<StageSpec> &stages,
    const std::vector<std::vector<uint32_t>> &service_cycles,
    wsva::Tracer *tracer = nullptr);

} // namespace wsva::vcu

#endif // WSVA_VCU_HLSIM_H
