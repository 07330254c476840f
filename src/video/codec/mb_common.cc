#include "video/codec/mb_common.h"

#include <algorithm>

#include "common/logging.h"
#include "video/codec/golomb.h"

namespace wsva::video::codec {

namespace {

int16_t
median3(int16_t a, int16_t b, int16_t c)
{
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

} // namespace

Mv
mvPredictor(const std::vector<MbNeighbor> &grid, int mb_cols, int mbx,
            int mby)
{
    auto fetch = [&](int x, int y, Mv &out) {
        if (x < 0 || y < 0 || x >= mb_cols)
            return false;
        const auto &nb =
            grid[static_cast<size_t>(y) * static_cast<size_t>(mb_cols) +
                 static_cast<size_t>(x)];
        if (!nb.coded || !nb.inter)
            return false;
        out = nb.mv;
        return true;
    };

    Mv candidates[3];
    int n = 0;
    Mv mv;
    if (fetch(mbx - 1, mby, mv))
        candidates[n++] = mv;
    if (fetch(mbx, mby - 1, mv))
        candidates[n++] = mv;
    if (fetch(mbx + 1, mby - 1, mv))
        candidates[n++] = mv;

    if (n == 0)
        return {0, 0};
    if (n == 1)
        return candidates[0];
    if (n == 2) {
        return {static_cast<int16_t>((candidates[0].x + candidates[1].x) / 2),
                static_cast<int16_t>((candidates[0].y + candidates[1].y) / 2)};
    }
    return {median3(candidates[0].x, candidates[1].x, candidates[2].x),
            median3(candidates[0].y, candidates[1].y, candidates[2].y)};
}

Mv
chromaMv(Mv luma_mv)
{
    // Truncating division keeps the same formula on both sides.
    return {static_cast<int16_t>(luma_mv.x / 2),
            static_cast<int16_t>(luma_mv.y / 2)};
}

void
buildInterPrediction(const RefFrames &refs,
                     const Mv *mvs, const int *ref_idx, bool split,
                     bool compound, int ref2, Mv mv2, int x, int y,
                     uint8_t *pred_y, uint8_t *pred_u, uint8_t *pred_v)
{
    constexpr int kHalf = kMbSize / 2;
    if (!split) {
        const Frame &ref = *refs[static_cast<size_t>(ref_idx[0])];
        motionCompensate(ref.y(), x, y, kMbSize, mvs[0], pred_y);
        const Mv cmv = chromaMv(mvs[0]);
        motionCompensate(ref.u(), x / 2, y / 2, kHalf, cmv, pred_u);
        motionCompensate(ref.v(), x / 2, y / 2, kHalf, cmv, pred_v);
        if (compound) {
            const Frame &r2 = *refs[static_cast<size_t>(ref2)];
            uint8_t alt_y[kMbSize * kMbSize];
            uint8_t alt_u[kHalf * kHalf];
            uint8_t alt_v[kHalf * kHalf];
            motionCompensate(r2.y(), x, y, kMbSize, mv2, alt_y);
            const Mv cmv2 = chromaMv(mv2);
            motionCompensate(r2.u(), x / 2, y / 2, kHalf, cmv2, alt_u);
            motionCompensate(r2.v(), x / 2, y / 2, kHalf, cmv2, alt_v);
            for (int i = 0; i < kMbSize * kMbSize; ++i)
                pred_y[i] =
                    static_cast<uint8_t>((pred_y[i] + alt_y[i] + 1) >> 1);
            for (int i = 0; i < kHalf * kHalf; ++i) {
                pred_u[i] =
                    static_cast<uint8_t>((pred_u[i] + alt_u[i] + 1) >> 1);
                pred_v[i] =
                    static_cast<uint8_t>((pred_v[i] + alt_v[i] + 1) >> 1);
            }
        }
        return;
    }

    // Split: four 8x8 luma partitions, each with its own MV/ref. The
    // chroma 4x4 quadrants follow their partition's MV.
    uint8_t part[8 * 8];
    for (int q = 0; q < 4; ++q) {
        const int qx = (q % 2) * 8;
        const int qy = (q / 2) * 8;
        const Frame &ref = *refs[static_cast<size_t>(ref_idx[q])];
        motionCompensate(ref.y(), x + qx, y + qy, 8, mvs[q], part);
        for (int r = 0; r < 8; ++r) {
            for (int c = 0; c < 8; ++c)
                pred_y[(qy + r) * kMbSize + qx + c] = part[r * 8 + c];
        }
        const Mv cmv = chromaMv(mvs[q]);
        uint8_t cpart[4 * 4];
        motionCompensate(ref.u(), x / 2 + qx / 2, y / 2 + qy / 2, 4, cmv,
                         cpart);
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                pred_u[(qy / 2 + r) * kHalf + qx / 2 + c] = cpart[r * 4 + c];
        motionCompensate(ref.v(), x / 2 + qx / 2, y / 2 + qy / 2, 4, cmv,
                         cpart);
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                pred_v[(qy / 2 + r) * kHalf + qx / 2 + c] = cpart[r * 4 + c];
    }
}

void
writeCoeffBlock(SyntaxWriter &writer, const CoeffBlock &levels)
{
    const auto &scan = zigzagOrder();
    int last_sig = -1;
    for (int si = 0; si < kTxCoeffs; ++si) {
        if (levels[static_cast<size_t>(scan[static_cast<size_t>(si)])] != 0)
            last_sig = si;
    }
    writer.writeBit(kCtxCbf, last_sig >= 0 ? 1 : 0);
    if (last_sig < 0)
        return;
    for (int si = 0; si <= last_sig && si < kTxCoeffs; ++si) {
        const int band = coeffBand(si);
        writer.writeBit(kCtxEobBand0 + band, 0);
        const int16_t level =
            levels[static_cast<size_t>(scan[static_cast<size_t>(si)])];
        writer.writeBit(kCtxSigBand0 + band, level != 0 ? 1 : 0);
        if (level != 0) {
            writer.writeLiteral(level < 0 ? 1u : 0u, 1);
            writer.writeUInt(kCtxMagBand0 + band,
                             static_cast<uint32_t>(std::abs(level)) - 1);
        }
    }
    if (last_sig < kTxCoeffs - 1) {
        const int band = coeffBand(last_sig + 1);
        writer.writeBit(kCtxEobBand0 + band, 1);
    }
}

void
readCoeffBlock(SyntaxReader &reader, CoeffBlock &levels)
{
    levels.fill(0);
    if (reader.readBit(kCtxCbf) == 0)
        return;
    const auto &scan = zigzagOrder();
    for (int si = 0; si < kTxCoeffs; ++si) {
        const int band = coeffBand(si);
        if (reader.readBit(kCtxEobBand0 + band) == 1)
            break;
        if (reader.readBit(kCtxSigBand0 + band) == 1) {
            const bool negative = reader.readLiteral(1) != 0;
            const uint32_t mag =
                reader.readUInt(kCtxMagBand0 + band) + 1;
            const auto value = static_cast<int16_t>(
                std::min<uint32_t>(mag, 32767));
            levels[static_cast<size_t>(scan[static_cast<size_t>(si)])] =
                negative ? static_cast<int16_t>(-value) : value;
        }
    }
}

int
estimateCoeffBits(const CoeffBlock &levels)
{
    const auto &scan = zigzagOrder();
    int last_sig = -1;
    for (int si = 0; si < kTxCoeffs; ++si) {
        if (levels[static_cast<size_t>(scan[static_cast<size_t>(si)])] != 0)
            last_sig = si;
    }
    if (last_sig < 0)
        return 1;
    int bits = 2; // cbf + trailing EOB.
    for (int si = 0; si <= last_sig; ++si) {
        const int16_t level =
            levels[static_cast<size_t>(scan[static_cast<size_t>(si)])];
        bits += 2; // EOB-continue + significance.
        if (level != 0) {
            bits += 1 +
                ueBits(static_cast<uint32_t>(std::abs(level)) - 1);
        }
    }
    return bits;
}

} // namespace wsva::video::codec
