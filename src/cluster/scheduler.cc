#include "cluster/scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace wsva::cluster {

void
DispatchQueue::push_back(const TranscodeStep &step)
{
    if (step.hasDeadline()) {
        edf_.push_back({step, next_seq_++});
        std::push_heap(edf_.begin(), edf_.end());
    } else {
        fifo_.push_back(step);
    }
}

void
DispatchQueue::push_front(const TranscodeStep &step)
{
    if (step.hasDeadline()) {
        // A retried deadline step re-enters the EDF lane; its
        // deadline, not its retry-ness, decides its place. The fresh
        // seq only breaks exact-deadline ties.
        edf_.push_back({step, next_seq_++});
        std::push_heap(edf_.begin(), edf_.end());
    } else {
        fifo_.push_front(step);
    }
}

const TranscodeStep &
DispatchQueue::front() const
{
    WSVA_ASSERT(!empty(), "front() on an empty dispatch queue");
    if (!edf_.empty())
        return edf_.front().step;
    return fifo_.front();
}

void
DispatchQueue::pop_front()
{
    WSVA_ASSERT(!empty(), "pop_front() on an empty dispatch queue");
    if (!edf_.empty()) {
        std::pop_heap(edf_.begin(), edf_.end());
        edf_.pop_back();
        return;
    }
    fifo_.pop_front();
}

size_t
DispatchQueue::parkBatch()
{
    // Single rebuild pass (mid-deque erase would be quadratic). Under
    // sustained surge this is cheap: previously parked steps already
    // sit in shed_, so the pass only touches arrivals since the last
    // park.
    size_t parked = 0;
    std::deque<TranscodeStep> keep;
    for (auto &step : fifo_) {
        if (step.priority == Priority::Batch) {
            shed_.push_back(std::move(step));
            ++parked;
        } else {
            keep.push_back(std::move(step));
        }
    }
    fifo_.swap(keep);
    return parked;
}

void
DispatchQueue::parkStep(const TranscodeStep &step)
{
    shed_.push_back(step);
}

size_t
DispatchQueue::unparkAll()
{
    const size_t released = shed_.size();
    while (!shed_.empty()) {
        fifo_.push_back(shed_.front());
        shed_.pop_front();
    }
    return released;
}

std::vector<TranscodeStep>
DispatchQueue::drainAll()
{
    std::vector<TranscodeStep> out;
    out.reserve(edf_.size() + fifo_.size() + shed_.size());
    // EDF lane in dispatch order (heap pops), then FIFO, then shed —
    // the receiving region re-queues in this order, so relative
    // urgency survives the reroute.
    while (!edf_.empty()) {
        std::pop_heap(edf_.begin(), edf_.end());
        out.push_back(std::move(edf_.back().step));
        edf_.pop_back();
    }
    for (auto &step : fifo_)
        out.push_back(std::move(step));
    fifo_.clear();
    for (auto &step : shed_)
        out.push_back(std::move(step));
    shed_.clear();
    return out;
}

ResourceVector
Scheduler::reservationFor(const ResourceVector &need) const
{
    return need;
}

void
Scheduler::attachMetrics(wsva::MetricsRegistry *metrics)
{
    if (metrics == nullptr) {
        placed_counter_ = wsva::CounterHandle();
        rejected_counter_ = wsva::CounterHandle();
        return;
    }
    placed_counter_ = metrics->counterHandle("sched.placed");
    rejected_counter_ = metrics->counterHandle("sched.rejected");
}

void
Scheduler::recordPick(bool placed)
{
    if (placed) {
        ++stats_.placed;
        placed_counter_.inc();
    } else {
        ++stats_.rejected;
        rejected_counter_.inc();
    }
}

void
AvailabilityIndex::build(std::vector<Worker *> workers)
{
    workers_ = std::move(workers);

    // Index every dimension any worker's capacity defines.
    dims_.clear();
    for (const Worker *w : workers_) {
        const ResourceVector &cap = w->capacity();
        for (int i = 0; i < cap.size(); ++i) {
            const uint16_t id = cap.dimId(i);
            auto it = std::lower_bound(dims_.begin(), dims_.end(), id);
            if (it == dims_.end() || *it != id)
                dims_.insert(it, id);
        }
    }
    WSVA_ASSERT(!workers_.empty(), "availability index over no workers");
    WSVA_ASSERT(dims_.size() <=
                    static_cast<size_t>(ResourceVector::kMaxDims),
                "too many distinct dimensions to index (%zu)",
                dims_.size());

    leaves_ = 1;
    while (leaves_ < workers_.size())
        leaves_ <<= 1;
    // Padding leaves hold -1 so no request ever descends into them.
    tree_.assign(static_cast<size_t>(2) * leaves_ * dims_.size(), -1.0);
    for (size_t pos = 0; pos < workers_.size(); ++pos)
        writeLeaf(static_cast<int>(pos));
    const size_t stride = dims_.size();
    for (uint32_t node = leaves_ - 1; node >= 1; --node) {
        double *dst = &tree_[node * stride];
        const double *left = &tree_[(2 * node) * stride];
        const double *right = &tree_[(2 * node + 1) * stride];
        for (size_t d = 0; d < stride; ++d)
            dst[d] = std::max(left[d], right[d]);
    }
}

void
AvailabilityIndex::writeLeaf(int pos)
{
    const Worker *w = workers_[pos];
    const size_t stride = dims_.size();
    double *leaf = &tree_[(leaves_ + static_cast<uint32_t>(pos)) * stride];
    if (!w->usable()) {
        for (size_t d = 0; d < stride; ++d)
            leaf[d] = -1.0;
        return;
    }
    const ResourceVector &avail = w->available();
    for (size_t d = 0; d < stride; ++d)
        leaf[d] = avail.get(dims_[d]);
}

void
AvailabilityIndex::update(int pos)
{
    writeLeaf(pos);
    const size_t stride = dims_.size();
    for (uint32_t node = (leaves_ + static_cast<uint32_t>(pos)) / 2;
         node >= 1; node /= 2) {
        double *dst = &tree_[node * stride];
        const double *left = &tree_[(2 * node) * stride];
        const double *right = &tree_[(2 * node + 1) * stride];
        bool changed = false;
        for (size_t d = 0; d < stride; ++d) {
            const double m = std::max(left[d], right[d]);
            if (dst[d] != m) {
                dst[d] = m;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
}

Worker *
AvailabilityIndex::descend(uint32_t node, const double *need_amt,
                           const ResourceVector &need) const
{
    const size_t stride = dims_.size();
    const double *vals = &tree_[node * stride];
    for (size_t d = 0; d < stride; ++d) {
        if (need_amt[d] > vals[d] + 1e-9)
            return nullptr;
    }
    if (node >= leaves_) {
        const uint32_t pos = node - leaves_;
        if (pos >= workers_.size())
            return nullptr;
        Worker *w = workers_[pos];
        // Exact guard: the subtree max is necessary, not sufficient,
        // and degenerate requests (no dimensions) prune nothing.
        return w->canFit(need) ? w : nullptr;
    }
    if (Worker *w = descend(2 * node, need_amt, need))
        return w;
    return descend(2 * node + 1, need_amt, need);
}

Worker *
AvailabilityIndex::firstFit(const ResourceVector &need) const
{
    double need_amt[ResourceVector::kMaxDims] = {};
    std::fill(need_amt, need_amt + dims_.size(), 0.0);
    for (int i = 0; i < need.size(); ++i) {
        const auto it = std::lower_bound(dims_.begin(), dims_.end(),
                                         need.dimId(i));
        if (it == dims_.end() || *it != need.dimId(i)) {
            // No worker capacity defines this dimension at all.
            if (need.amount(i) > 1e-9)
                return nullptr;
            continue;
        }
        need_amt[it - dims_.begin()] = need.amount(i);
    }
    return descend(1, need_amt, need);
}

size_t
AvailabilityIndex::capacityBytes() const
{
    return tree_.capacity() * sizeof(double) +
           dims_.capacity() * sizeof(uint16_t) +
           workers_.capacity() * sizeof(Worker *);
}

BinPackScheduler::BinPackScheduler(std::vector<Worker *> workers)
    : workers_(std::move(workers))
{
    std::sort(workers_.begin(), workers_.end(),
              [](const Worker *a, const Worker *b) {
                  return a->id() < b->id();
              });
}

BinPackScheduler::~BinPackScheduler()
{
    if (indexed_) {
        for (Worker *w : workers_)
            w->setAvailabilityListener(nullptr, -1);
    }
}

void
BinPackScheduler::enableIndex()
{
    if (indexed_ || workers_.empty())
        return;
    index_.build(workers_);
    for (size_t pos = 0; pos < workers_.size(); ++pos)
        workers_[pos]->setAvailabilityListener(this,
                                               static_cast<int>(pos));
    indexed_ = true;
}

void
BinPackScheduler::onWorkerAvailabilityChanged(Worker &worker, int tag)
{
    (void)worker;
    index_.update(tag);
}

Worker *
BinPackScheduler::pick(const ResourceVector &need)
{
    // First fit by worker number against the availability cache
    // (Figure 6: Worker 0 lacks decode resources -> Worker 1 takes
    // the request; fully idle trailing workers become stop
    // candidates). The indexed path returns the identical worker via
    // the segment tree.
    if (indexed_) {
        Worker *w = index_.firstFit(need);
        recordPick(w != nullptr);
        return w;
    }
    for (Worker *w : workers_) {
        if (w->canFit(need)) {
            recordPick(true);
            return w;
        }
    }
    recordPick(false);
    return nullptr;
}

int
BinPackScheduler::idleWorkers() const
{
    int idle = 0;
    for (const Worker *w : workers_)
        idle += w->idle();
    return idle;
}

SlotScheduler::SlotScheduler(std::vector<Worker *> workers,
                             ResourceVector slot_need)
    : workers_(std::move(workers)), slot_need_(std::move(slot_need))
{
    std::sort(workers_.begin(), workers_.end(),
              [](const Worker *a, const Worker *b) {
                  return a->id() < b->id();
              });
}

Worker *
SlotScheduler::pick(const ResourceVector &need)
{
    // The uniform cost model ignores the request's actual shape; it
    // only asks "is a slot free". The physical reservation is the
    // element-wise max of the slot bundle and the true request
    // (oversized steps still consume what they consume), so that is
    // what must fit — this is exactly the stranding the bin-packing
    // scheduler eliminates.
    const ResourceVector reservation = reservationFor(need);
    for (Worker *w : workers_) {
        if (w->canFit(reservation)) {
            recordPick(true);
            return w;
        }
    }
    recordPick(false);
    return nullptr;
}

ResourceVector
SlotScheduler::reservationFor(const ResourceVector &need) const
{
    // Element-wise max of the slot bundle and the true request: a
    // big step still physically consumes what it consumes, and the
    // slot accounting wastes the rest.
    ResourceVector reservation = slot_need_;
    for (const auto &[name, amount] : need.dims()) {
        if (amount > reservation.get(name))
            reservation.set(name, amount);
    }
    return reservation;
}

} // namespace wsva::cluster
