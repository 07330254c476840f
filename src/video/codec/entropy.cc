#include "video/codec/entropy.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "video/codec/golomb.h"

namespace wsva::video::codec {

int
coeffBand(int scan_pos)
{
    if (scan_pos == 0)
        return 0;
    if (scan_pos <= 3)
        return 1;
    if (scan_pos <= 9)
        return 2;
    if (scan_pos <= 20)
        return 3;
    return 4;
}

void
EntropyModel::reset()
{
    probs_.fill(128);
    for (auto &c : counts_)
        c = {0, 0};
    // Skewed defaults where the neutral prior is clearly wrong: most
    // positions are EOB-negative and significance-positive early on.
    for (int band = 0; band < 5; ++band) {
        probs_[idx(kCtxEobBand0 + band, 0)] = 200; // EOB bit mostly 0.
        probs_[idx(kCtxSigBand0 + band, 0)] = 110;
    }
    probs_[idx(kCtxSkip, 0)] = 128;
    probs_[idx(kCtxCbf, 0)] = 100;
}

void
EntropyModel::adapt()
{
    for (size_t i = 0; i < probs_.size(); ++i) {
        const uint32_t c0 = counts_[i][0];
        const uint32_t c1 = counts_[i][1];
        const uint32_t total = c0 + c1;
        counts_[i] = {0, 0};
        if (total < 4)
            continue; // Too little evidence; keep the old estimate.
        const auto observed = static_cast<int>((c0 * 256 + total / 2) / total);
        // Blend strongly toward the observation (VP9's backward
        // adaptation converges within a frame or two).
        int blended = (static_cast<int>(probs_[i]) + 7 * observed + 4) / 8;
        probs_[i] = static_cast<Prob>(std::clamp(blended, 1, 255));
    }
}

void
SyntaxWriter::writeSInt(int ctx, int32_t value)
{
    // Zigzag map: 0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...
    const uint32_t mapped = value >= 0
        ? 2u * static_cast<uint32_t>(value)
        : 2u * static_cast<uint32_t>(-value) - 1;
    writeUInt(ctx, mapped);
}

int32_t
SyntaxReader::readSInt(int ctx)
{
    const uint32_t mapped = readUInt(ctx);
    if (mapped & 1)
        return -static_cast<int32_t>((mapped + 1) / 2);
    return static_cast<int32_t>(mapped / 2);
}

// ---------------------------------------------------------------- Golomb

void
GolombSyntaxWriter::writeBit(int ctx, int bit)
{
    (void)ctx;
    bw_.putBit(bit);
}

void
GolombSyntaxWriter::writeUInt(int ctx, uint32_t value)
{
    (void)ctx;
    putUe(bw_, value);
}

void
GolombSyntaxWriter::writeLiteral(uint32_t value, int count)
{
    bw_.putBits(value, count);
}

double
GolombSyntaxWriter::bitsWritten() const
{
    return static_cast<double>(bw_.bitCount());
}

std::vector<uint8_t>
GolombSyntaxWriter::finish()
{
    return bw_.take();
}

int
GolombSyntaxReader::readBit(int ctx)
{
    (void)ctx;
    return br_.getBit();
}

uint32_t
GolombSyntaxReader::readUInt(int ctx)
{
    (void)ctx;
    return getUe(br_);
}

uint32_t
GolombSyntaxReader::readLiteral(int count)
{
    return br_.getBits(count);
}

// ----------------------------------------------------------------- Arith

namespace {

/** Exp-Golomb magnitude class of value + 1: number of offset bits. */
int
magnitudeClass(uint32_t value)
{
    return 31 - std::countl_zero(value + 1);
}

} // namespace

void
ArithSyntaxWriter::writeBit(int ctx, int bit)
{
    const Prob p = model_->prob(ctx, 0);
    enc_.encodeBit(p, bit);
    model_->record(ctx, 0, bit);
}

void
ArithSyntaxWriter::writeUInt(int ctx, uint32_t value)
{
    const int k = magnitudeClass(value);
    WSVA_ASSERT(k < 31, "writeUInt value overflow");
    // Unary prefix: k continuation bits (1) then a stop bit (0), each
    // against the adaptive probability for its position.
    for (int i = 0; i < k; ++i) {
        const int bin = std::min(i, EntropyModel::kPrefixBins - 2) + 1;
        const Prob p = model_->prob(ctx, bin);
        enc_.encodeBit(p, 1);
        model_->record(ctx, bin, 1);
    }
    const int stop_bin = std::min(k, EntropyModel::kPrefixBins - 2) + 1;
    const Prob p = model_->prob(ctx, stop_bin);
    enc_.encodeBit(p, 0);
    model_->record(ctx, stop_bin, 0);
    // Offset bits: value + 1 minus its leading one bit.
    if (k > 0)
        enc_.encodeLiteral((value + 1) & ((1u << k) - 1), k);
}

void
ArithSyntaxWriter::writeLiteral(uint32_t value, int count)
{
    enc_.encodeLiteral(value, count);
}

double
ArithSyntaxWriter::bitsWritten() const
{
    return static_cast<double>(enc_.costUnits()) / 256.0;
}

std::vector<uint8_t>
ArithSyntaxWriter::finish()
{
    return enc_.finish();
}

int
ArithSyntaxReader::readBit(int ctx)
{
    const Prob p = model_->prob(ctx, 0);
    const int bit = dec_.decodeBit(p);
    model_->record(ctx, 0, bit);
    return bit;
}

uint32_t
ArithSyntaxReader::readUInt(int ctx)
{
    int k = 0;
    for (;;) {
        const int bin = std::min(k, EntropyModel::kPrefixBins - 2) + 1;
        const Prob p = model_->prob(ctx, bin);
        const int bit = dec_.decodeBit(p);
        model_->record(ctx, bin, bit);
        if (bit == 0)
            break;
        ++k;
        WSVA_ASSERT(k < 32, "corrupt unary prefix");
    }
    uint32_t offset = k > 0 ? dec_.decodeLiteral(k) : 0;
    return ((1u << k) | offset) - 1;
}

uint32_t
ArithSyntaxReader::readLiteral(int count)
{
    return dec_.decodeLiteral(count);
}

// ------------------------------------------------------------- Estimates

int
estimateSIntBits(int32_t value)
{
    const uint32_t mapped = value >= 0
        ? 2u * static_cast<uint32_t>(value)
        : 2u * static_cast<uint32_t>(-value) - 1;
    return ueBits(mapped);
}

} // namespace wsva::video::codec
