/**
 * @file
 * Syntax-element coding layer.
 *
 * The encoder and decoder express macroblock syntax through the
 * SyntaxWriter/SyntaxReader interfaces. Two implementations exist,
 * mirroring the paper's two coding-specification families:
 *
 *  - GolombSyntax*  (H.264-like): static universal codes (Exp-Golomb)
 *    over a plain bit stream. No probability state.
 *  - ArithSyntax*   (VP9-like): context-adaptive binary arithmetic
 *    coding with *backward* per-frame probability adaptation — both
 *    sides count coded bins and re-derive the probabilities at frame
 *    end, so no probability signaling is needed (as in VP9).
 *
 * Unsigned values are binarized Exp-Golomb style: a unary prefix
 * giving the magnitude class (each prefix bin has its own adaptive
 * probability, indexed by position) followed by raw offset bits.
 */

#ifndef WSVA_VIDEO_CODEC_ENTROPY_H
#define WSVA_VIDEO_CODEC_ENTROPY_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "video/codec/bitio.h"
#include "video/codec/range_coder.h"

namespace wsva::video::codec {

/** Syntax-element contexts. Band-indexed contexts are consecutive. */
enum SyntaxCtx : int {
    kCtxSkip = 0,
    kCtxIsInter,
    kCtxSplit,
    kCtxIntraMode,
    kCtxRefIdx,
    kCtxCompound,
    kCtxMvdX,
    kCtxMvdY,
    kCtxCbf,
    kCtxEobBand0, //!< 5 consecutive coefficient-band contexts.
    kCtxEobBand1,
    kCtxEobBand2,
    kCtxEobBand3,
    kCtxEobBand4,
    kCtxSigBand0, //!< 5 consecutive significance-band contexts.
    kCtxSigBand1,
    kCtxSigBand2,
    kCtxSigBand3,
    kCtxSigBand4,
    kCtxMagBand0, //!< 5 consecutive magnitude-band contexts.
    kCtxMagBand1,
    kCtxMagBand2,
    kCtxMagBand3,
    kCtxMagBand4,
    kNumSyntaxCtx,
};

/** Coefficient band of a zigzag scan position (0..63) -> [0, 5). */
int coeffBand(int scan_pos);

/**
 * Adaptive probability state for the arithmetic profile. Each
 * context owns one probability for writeBit plus one per unary
 * prefix position for writeUInt. Counts are accumulated while coding
 * and folded into the probabilities by adapt(), which the encoder
 * and decoder both call at every frame boundary.
 */
class EntropyModel
{
  public:
    static constexpr int kPrefixBins = 17; //!< bit prob + 16 prefix probs.

    EntropyModel() { reset(); }

    /** Restore default probabilities and clear counts (keyframes). */
    void reset();

    /** Fold accumulated counts into the probabilities (frame end). */
    void adapt();

    /** Probability for bin @p bin of context @p ctx. */
    Prob prob(int ctx, int bin) const { return probs_[idx(ctx, bin)]; }

    /** Record one coded bin for adaptation. */
    void
    record(int ctx, int bin, int bit)
    {
        ++counts_[idx(ctx, bin)][bit];
    }

  private:
    static size_t
    idx(int ctx, int bin)
    {
        return static_cast<size_t>(ctx) * kPrefixBins +
               static_cast<size_t>(bin);
    }

    std::array<Prob, kNumSyntaxCtx * kPrefixBins> probs_;
    std::array<std::array<uint32_t, 2>, kNumSyntaxCtx * kPrefixBins> counts_;
};

/** Abstract syntax writer (one per frame payload). */
class SyntaxWriter
{
  public:
    virtual ~SyntaxWriter() = default;

    /** Code one binary decision in context @p ctx. */
    virtual void writeBit(int ctx, int bit) = 0;

    /** Code an unsigned value in context @p ctx. */
    virtual void writeUInt(int ctx, uint32_t value) = 0;

    /** Code a signed value (zigzag-mapped) in context @p ctx. */
    void writeSInt(int ctx, int32_t value);

    /** Code @p count raw bits. */
    virtual void writeLiteral(uint32_t value, int count) = 0;

    /** Bits produced so far (exact golomb; 1/256-precision arith). */
    virtual double bitsWritten() const = 0;

    /** Finish the payload and return its bytes. */
    virtual std::vector<uint8_t> finish() = 0;
};

/** Abstract syntax reader mirroring SyntaxWriter. */
class SyntaxReader
{
  public:
    virtual ~SyntaxReader() = default;

    virtual int readBit(int ctx) = 0;
    virtual uint32_t readUInt(int ctx) = 0;
    int32_t readSInt(int ctx);
    virtual uint32_t readLiteral(int count) = 0;
};

/** H.264-like writer: Exp-Golomb over a raw bit stream. */
class GolombSyntaxWriter : public SyntaxWriter
{
  public:
    void writeBit(int ctx, int bit) override;
    void writeUInt(int ctx, uint32_t value) override;
    void writeLiteral(uint32_t value, int count) override;
    double bitsWritten() const override;
    std::vector<uint8_t> finish() override;

  private:
    BitWriter bw_;
};

/** H.264-like reader. */
class GolombSyntaxReader : public SyntaxReader
{
  public:
    GolombSyntaxReader(const uint8_t *data, size_t size) : br_(data, size) {}

    int readBit(int ctx) override;
    uint32_t readUInt(int ctx) override;
    uint32_t readLiteral(int count) override;

    /** True if a read ran past the payload. */
    bool overrun() const { return br_.overrun(); }

  private:
    BitReader br_;
};

/** VP9-like writer: adaptive arithmetic coding against @p model. */
class ArithSyntaxWriter : public SyntaxWriter
{
  public:
    explicit ArithSyntaxWriter(EntropyModel &model) : model_(&model) {}

    void writeBit(int ctx, int bit) override;
    void writeUInt(int ctx, uint32_t value) override;
    void writeLiteral(uint32_t value, int count) override;
    double bitsWritten() const override;
    std::vector<uint8_t> finish() override;

  private:
    EntropyModel *model_;
    RangeEncoder enc_;
};

/** VP9-like reader. */
class ArithSyntaxReader : public SyntaxReader
{
  public:
    ArithSyntaxReader(EntropyModel &model, const uint8_t *data, size_t size)
        : model_(&model), dec_(data, size) {}

    int readBit(int ctx) override;
    uint32_t readUInt(int ctx) override;
    uint32_t readLiteral(int count) override;

  private:
    EntropyModel *model_;
    RangeDecoder dec_;
};

/**
 * Cheap bit-size estimate used by rate-distortion mode decisions
 * (profile-independent; golomb-exact, close enough for arith).
 */
int estimateSIntBits(int32_t value);

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_ENTROPY_H
