/**
 * @file
 * The VCU ASIC model: 10 encoder cores, 3 decoder cores, a shared
 * DRAM subsystem, health telemetry, and fault state (Figure 3b).
 *
 * Work is presented as stateless operations (all state lives in
 * device DRAM, Section 3.2 "Control and Stateless Operation"), so
 * any idle core of the right kind can run any op. The chip advances
 * in continuous time: running ops progress at a rate set by DRAM
 * bandwidth contention (max-min fair across ops).
 */

#ifndef WSVA_VCU_CHIP_H
#define WSVA_VCU_CHIP_H

#include <cstdint>
#include <optional>
#include <vector>

#include "vcu/dram.h"
#include "vcu/encoder_core.h"

namespace wsva::vcu {

/** Chip-level static configuration. */
struct VcuChipConfig
{
    int encoder_cores = 10;
    int decoder_cores = 3;
    EncoderCoreConfig encoder;
    DecoderCoreConfig decoder;
    DramConfig dram;
};

/** Kind of a chip-level operation. */
enum class OpKind : int {
    Encode = 0,
    Decode = 1,
};

/** One stateless operation submitted to the chip. */
struct VcuOp
{
    uint64_t id = 0;
    OpKind kind = OpKind::Encode;
    double core_seconds = 0.0;   //!< Uncontended service time.
    double dram_gibps = 0.0;     //!< Bandwidth demand while running.
    uint64_t dram_bytes = 0;     //!< Footprint held while running.
};

/** Health telemetry exposed by the firmware (Section 4.4). */
struct VcuTelemetry
{
    double temperature_c = 45.0;
    uint64_t resets = 0;
    uint64_t correctable_ecc = 0;
    uint64_t uncorrectable_ecc = 0;
    int failed_encoder_cores = 0;
    int failed_decoder_cores = 0;
};

/** The VCU chip. */
class VcuChip
{
  public:
    explicit VcuChip(VcuChipConfig cfg = {});

    /**
     * Submit an op. Returns false if the chip is disabled or the op
     * footprint does not fit in device DRAM (caller retries later or
     * elsewhere); otherwise the op queues for a core.
     */
    bool submit(const VcuOp &op);

    /** Advance time; completed op ids are appended to @p done. */
    void advance(double dt, std::vector<uint64_t> &done);

    /** True when no op is running or queued. */
    bool idle() const;

    // --- Failure management (Section 4.4). ------------------------

    /** Permanently disable the whole VCU (fault manager action). */
    void disable();
    bool disabled() const { return disabled_; }

    /** Mark one core failed; capacity shrinks. */
    void failEncoderCore();
    void failDecoderCore();

    /** Record ECC events (telemetry). */
    void recordCorrectableEcc(uint64_t n = 1);
    void recordUncorrectableEcc(uint64_t n = 1);

    /**
     * Set a persistent silent-corruption fault: the chip keeps
     * running at full speed but produces corrupt outputs — the
     * "black hole" failure mode.
     */
    void setSilentFault(bool value) { silent_fault_ = value; }
    bool hasSilentFault() const { return silent_fault_; }

    /**
     * Functional reset + short deterministic 'golden' transcodes on
     * every core (Section 4.4). Returns false if a persistent fault
     * is detected, in which case a worker must refuse to use the VCU.
     */
    bool runGoldenCheck();

    // --- Introspection. --------------------------------------------

    const VcuTelemetry &telemetry() const { return telemetry_; }
    const VcuChipConfig &config() const { return cfg_; }

    int usableEncoderCores() const;
    int usableDecoderCores() const;
    int busyEncoderCores() const;
    int busyDecoderCores() const;
    size_t queuedOps() const { return queue_.size(); }

    /** Instantaneous encoder-core occupancy in [0, 1]. */
    double encoderUtilization() const;
    /** Instantaneous decoder-core occupancy in [0, 1]. */
    double decoderUtilization() const;

  private:
    struct Running
    {
        VcuOp op;
        double remaining; //!< Core-seconds of work left.
    };

    void startQueued();

    VcuChipConfig cfg_;
    DramCapacity capacity_;
    std::vector<Running> running_;
    std::vector<VcuOp> queue_;
    VcuTelemetry telemetry_;
    bool disabled_ = false;
    bool silent_fault_ = false;
};

} // namespace wsva::vcu

#endif // WSVA_VCU_CHIP_H
