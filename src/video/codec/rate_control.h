/**
 * @file
 * Rate control: first-pass analysis and quantizer selection.
 *
 * Implements the paper's encoding-mode taxonomy (Section 2.1):
 * one-pass low latency, two-pass low-latency, lagged two-pass with a
 * bounded future window, and offline two-pass with whole-clip
 * statistics. The second pass allocates the bit budget across frames
 * proportionally to first-pass complexity and converts per-frame
 * targets to quantizers through an adaptive rate model
 * (bits ~ k * pixels * complexity / qstep).
 */

#ifndef WSVA_VIDEO_CODEC_RATE_CONTROL_H
#define WSVA_VIDEO_CODEC_RATE_CONTROL_H

#include <vector>

#include "video/codec/codec.h"
#include "video/frame.h"

namespace wsva::video::codec {

/** Per-frame statistics from the analysis pass. */
struct FirstPassFrameStats
{
    double intra_cost = 0.0;  //!< Mean per-pixel intra (DC) SAD.
    double inter_cost = 0.0;  //!< Mean per-pixel inter SAD vs prev.
    double complexity = 0.0;  //!< min(intra, inter) — coding effort.
    bool scene_cut = false;   //!< Inter prediction broke down.
};

using FirstPassStats = std::vector<FirstPassFrameStats>;

/** Cheap analysis pass over source frames (no encoding). */
FirstPassStats runFirstPass(const std::vector<Frame> &frames);

/** Quantizer selection state machine for one encode. */
class RateController
{
  public:
    /** Behaviour tweaks tied to the hardware tuning level (Fig. 10). */
    struct Tuning
    {
        bool adapt_rate_model = true; //!< Update k from outcomes.
        double keyframe_boost = 1.5;  //!< Extra budget for keyframes.
        double complexity_exponent = 0.7; //!< Allocation flattening.
    };

    /**
     * @param cfg Encoder configuration (rc mode, bitrate, fps...).
     * @param stats First-pass stats; required for the two-pass lagged
     *        and offline modes, optional otherwise.
     */
    RateController(const EncoderConfig &cfg, FirstPassStats stats,
                   Tuning tuning);

    /** Pick the quantizer for the frame about to be encoded. */
    int pickQp(int display_idx, FrameType type);

    /** Report the quantizer used and actual size of an encoded frame. */
    void onFrameEncoded(int display_idx, FrameType type, int qp_used,
                        double bits);

  private:
    double frameComplexity(int display_idx) const;
    double targetBits(int display_idx, FrameType type);
    int qpForTarget(double target_bits, double complexity) const;

    EncoderConfig cfg_;
    FirstPassStats stats_;
    Tuning tuning_;

    double k_;                 //!< Adaptive rate-model gain.
    double per_frame_budget_;  //!< bitrate / fps.
    double buffer_;            //!< Over/under-spend accumulator (bits).
    double ewma_complexity_;   //!< Trailing complexity (low-latency).
    int last_qp_;
    bool have_encoded_ = false;
};

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_RATE_CONTROL_H
