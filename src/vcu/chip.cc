#include "vcu/chip.h"

#include <algorithm>

#include "common/logging.h"

namespace wsva::vcu {

VcuChip::VcuChip(VcuChipConfig cfg)
    : cfg_(cfg), capacity_(cfg.dram.capacity_bytes)
{
    WSVA_ASSERT(cfg_.encoder_cores > 0 && cfg_.decoder_cores > 0,
                "chip needs at least one core of each kind");
}

int
VcuChip::usableEncoderCores() const
{
    if (disabled_)
        return 0;
    return std::max(0, cfg_.encoder_cores -
                           telemetry_.failed_encoder_cores);
}

int
VcuChip::usableDecoderCores() const
{
    if (disabled_)
        return 0;
    return std::max(0, cfg_.decoder_cores -
                           telemetry_.failed_decoder_cores);
}

int
VcuChip::busyEncoderCores() const
{
    int n = 0;
    for (const auto &r : running_)
        n += r.op.kind == OpKind::Encode;
    return n;
}

int
VcuChip::busyDecoderCores() const
{
    int n = 0;
    for (const auto &r : running_)
        n += r.op.kind == OpKind::Decode;
    return n;
}

double
VcuChip::encoderUtilization() const
{
    const int usable = usableEncoderCores();
    return usable > 0
        ? static_cast<double>(busyEncoderCores()) / usable
        : 0.0;
}

double
VcuChip::decoderUtilization() const
{
    const int usable = usableDecoderCores();
    return usable > 0
        ? static_cast<double>(busyDecoderCores()) / usable
        : 0.0;
}

bool
VcuChip::submit(const VcuOp &op)
{
    if (disabled_)
        return false;
    WSVA_ASSERT(op.core_seconds > 0.0, "op %lu has no work",
                static_cast<unsigned long>(op.id));
    if (!capacity_.reserve(op.dram_bytes))
        return false;
    queue_.push_back(op);
    startQueued();
    return true;
}

void
VcuChip::startQueued()
{
    // Stateless dispatch: any idle core of the right kind takes the
    // next queued op of that kind (firmware round-robin fairness is
    // modeled at the Firmware layer; here FIFO per kind suffices).
    for (auto it = queue_.begin(); it != queue_.end();) {
        const bool is_enc = it->kind == OpKind::Encode;
        const int busy = is_enc ? busyEncoderCores() : busyDecoderCores();
        const int usable =
            is_enc ? usableEncoderCores() : usableDecoderCores();
        if (busy < usable) {
            running_.push_back({*it, it->core_seconds});
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
}

void
VcuChip::advance(double dt, std::vector<uint64_t> &done)
{
    WSVA_ASSERT(dt >= 0.0, "negative dt");
    if (disabled_) {
        // Fault manager killed the chip; everything in flight fails
        // silently (callers learn via disabled()).
        return;
    }

    double remaining_dt = dt;
    while (remaining_dt > 1e-12 && !running_.empty()) {
        // Bandwidth-contended progress rates.
        std::vector<double> demands;
        demands.reserve(running_.size());
        for (const auto &r : running_)
            demands.push_back(r.op.dram_gibps);
        const auto grants =
            allocateBandwidth(cfg_.dram.usableGibps(), demands);

        // Progress rate of each op: 1.0 when its bandwidth demand is
        // met, proportionally slower when throttled.
        std::vector<double> rates(running_.size(), 1.0);
        for (size_t i = 0; i < running_.size(); ++i) {
            if (demands[i] > 1e-12)
                rates[i] = std::min(1.0, grants[i] / demands[i]);
        }

        // Find the next completion within remaining_dt.
        double step = remaining_dt;
        for (size_t i = 0; i < running_.size(); ++i) {
            if (rates[i] > 1e-12)
                step = std::min(step, running_[i].remaining / rates[i]);
        }

        for (size_t i = 0; i < running_.size(); ++i)
            running_[i].remaining -= rates[i] * step;
        remaining_dt -= step;

        // Retire finished ops.
        for (auto it = running_.begin(); it != running_.end();) {
            if (it->remaining <= 1e-9) {
                done.push_back(it->op.id);
                capacity_.release(it->op.dram_bytes);
                it = running_.erase(it);
            } else {
                ++it;
            }
        }
        startQueued();
    }

    // Temperature proxy: tracks utilization (for telemetry realism).
    const double load =
        (encoderUtilization() + decoderUtilization()) / 2.0;
    telemetry_.temperature_c =
        0.95 * telemetry_.temperature_c + 0.05 * (42.0 + 38.0 * load);
}

bool
VcuChip::idle() const
{
    return running_.empty() && queue_.empty();
}

void
VcuChip::disable()
{
    disabled_ = true;
    // In-flight work is lost; release footprints.
    for (const auto &r : running_)
        capacity_.release(r.op.dram_bytes);
    for (const auto &q : queue_)
        capacity_.release(q.dram_bytes);
    running_.clear();
    queue_.clear();
}

void
VcuChip::failEncoderCore()
{
    if (telemetry_.failed_encoder_cores < cfg_.encoder_cores)
        ++telemetry_.failed_encoder_cores;
}

void
VcuChip::failDecoderCore()
{
    if (telemetry_.failed_decoder_cores < cfg_.decoder_cores)
        ++telemetry_.failed_decoder_cores;
}

void
VcuChip::recordCorrectableEcc(uint64_t n)
{
    telemetry_.correctable_ecc += n;
}

void
VcuChip::recordUncorrectableEcc(uint64_t n)
{
    telemetry_.uncorrectable_ecc += n;
}

bool
VcuChip::runGoldenCheck()
{
    if (disabled_)
        return false;
    ++telemetry_.resets;
    // The golden transcodes exercise every core deterministically;
    // persistent faults (silent corruption, dead cores beyond spec,
    // uncorrectable ECC history) are caught here.
    if (silent_fault_)
        return false;
    if (telemetry_.uncorrectable_ecc > 0)
        return false;
    return usableEncoderCores() > 0 && usableDecoderCores() > 0;
}

} // namespace wsva::vcu
