/**
 * @file
 * Timing/bandwidth model of one VCU encoder core.
 *
 * Calibrated to the paper's published operating points:
 *  - one core encodes 2160p at up to 60 FPS in real time using three
 *    reference frames (Section 3.3.1), i.e. ~0.5 Gpix/s;
 *  - throughput scales near-linearly with pixel count;
 *  - DRAM traffic per 2160p frame averages ~3.5 GiB/s raw, reduced
 *    to ~2-3 GiB/s by lossless reference compression;
 *  - the decoder core consistently uses 2.2 GiB/s.
 *
 * The per-frame encode time is derived from an hlsim pipeline run
 * over the macroblock stream: motion/RDO, entropy/decode/temporal-
 * filter, and loop-filter/compression stages with mode-dependent
 * service-time variability and FIFO backpressure, exactly the
 * structure of Figure 4.
 */

#ifndef WSVA_VCU_ENCODER_CORE_H
#define WSVA_VCU_ENCODER_CORE_H

#include <cstdint>

#include "video/codec/codec.h"

namespace wsva {
class Tracer;
}

namespace wsva::vcu {

/** Static parameters of the encoder-core model. */
struct EncoderCoreConfig
{
    double clock_ghz = 0.933;       //!< Core clock.
    uint32_t base_cycles_per_mb = 352; //!< Bottleneck-stage service.
    double vp9_cycle_factor = 1.18; //!< VP9 costs more per MB.
    double ref_cycle_factor = 0.06; //!< Extra per reference searched.
    size_t fifo_depth = 8;          //!< Inter-stage FIFO depth.

    /** Reference-frame read compression (Section 3.2: ~2x). */
    double fbc_read_ratio = 2.0;

    /**
     * Optional span tracer (not owned; must outlive the model's
     * estimate calls). Forwarded to the hlsim pipeline run, which
     * records per-(stage, macroblock) occupancy spans in cycle time.
     */
    wsva::Tracer *tracer = nullptr;
};

/** One encode operation presented to the core. */
struct EncodeJob
{
    int width = 3840;
    int height = 2160;
    double fps = 30.0;    //!< Presentation rate (for realtime checks).
    int frame_count = 1;
    wsva::video::codec::CodecType codec =
        wsva::video::codec::CodecType::VP9;
    int num_refs = 3;
    bool two_pass = false; //!< Second pass reuses first-pass stats.
    uint64_t seed = 1;     //!< Drives per-MB variability.
};

/** Timing/traffic estimate for a job on one core. */
struct EncodeEstimate
{
    double seconds = 0.0;           //!< Wall time on the core.
    double pixels_per_second = 0.0; //!< Luma throughput.
    double dram_read_gibps = 0.0;   //!< Average read bandwidth.
    double dram_write_gibps = 0.0;  //!< Average write bandwidth.
    double bottleneck_utilization = 0.0; //!< Busiest stage share.
    bool realtime = false;          //!< seconds <= duration.
};

/** Cycle-approximate encoder-core model. */
class EncoderCoreModel
{
  public:
    explicit EncoderCoreModel(EncoderCoreConfig cfg = {}) : cfg_(cfg) {}

    /** Estimate timing and DRAM traffic for a job. */
    EncodeEstimate estimate(const EncodeJob &job) const;

    const EncoderCoreConfig &config() const { return cfg_; }

  private:
    EncoderCoreConfig cfg_;
};

/** Decoder-core model: fixed-rate, per the paper's 2.2 GiB/s figure. */
struct DecoderCoreConfig
{
    double pixel_rate = 1.1e9;    //!< Decoded pixels/second.
    double dram_gibps = 2.2;      //!< Constant DRAM bandwidth in use.
};

/** Timing estimate for decoding on a decoder core. */
double decodeSeconds(const DecoderCoreConfig &cfg, int width, int height,
                     int frame_count);

} // namespace wsva::vcu

#endif // WSVA_VCU_ENCODER_CORE_H
