#include "video/codec/mb_common.h"

#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "common/logging.h"

namespace wsva::video::codec {

// The pixel loops here are SSE2, the x86-64 baseline, so they have no
// scalar twin; tests/codec/test_mb_common.cc keeps per-pixel references.

namespace {

int16_t
median3(int16_t a, int16_t b, int16_t c)
{
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

/** Eight pixels at @p p, widened to int16 lanes. */
inline __m128i
loadRow8Wide(const uint8_t *p)
{
    return _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)),
        _mm_setzero_si128());
}

/** a = (a + b + 1) >> 1 over @p n bytes, @p n a multiple of 16. */
void
averageInto(uint8_t *a, const uint8_t *b, int n)
{
    for (int i = 0; i < n; i += 16) {
        auto *pa = reinterpret_cast<__m128i *>(a + i);
        const auto *pb = reinterpret_cast<const __m128i *>(b + i);
        _mm_storeu_si128(pa, _mm_avg_epu8(_mm_loadu_si128(pa),
                                          _mm_loadu_si128(pb)));
    }
}

/** What one pass over a level block finds. */
struct LevelScan
{
    uint64_t nonzero; //!< Bit i is set when raster level i is nonzero.
    int last_sig;     //!< Scan position of the last nonzero level, or -1.
};

/**
 * The one pass over a level block that finds its nonzero levels: the
 * raster mask of them, and the scan position of the last one, which is
 * the largest zigzagInverse() entry among them.
 */
LevelScan
scanLevels(const CoeffBlock &levels)
{
    const auto &position = zigzagInverse();
    const __m128i zero = _mm_setzero_si128();
    __m128i last = zero;
    uint64_t mask = 0;
    for (int i = 0; i < kTxCoeffs; i += 16) {
        const auto *l = reinterpret_cast<const __m128i *>(levels.data() + i);
        const auto *p =
            reinterpret_cast<const __m128i *>(position.data() + i);
        const __m128i zero_lo = _mm_cmpeq_epi16(_mm_loadu_si128(l), zero);
        const __m128i zero_hi =
            _mm_cmpeq_epi16(_mm_loadu_si128(l + 1), zero);
        last = _mm_max_epi16(
            last, _mm_andnot_si128(zero_lo, _mm_loadu_si128(p)));
        last = _mm_max_epi16(
            last, _mm_andnot_si128(zero_hi, _mm_loadu_si128(p + 1)));
        // Sixteen 0 / -1 bytes, -1 where the level is zero.
        const __m128i zeros = _mm_packs_epi16(zero_lo, zero_hi);
        mask |= static_cast<uint64_t>(~_mm_movemask_epi8(zeros) & 0xffff)
                << i;
    }
    last = _mm_max_epi16(last,
                         _mm_shuffle_epi32(last, _MM_SHUFFLE(1, 0, 3, 2)));
    last = _mm_max_epi16(last,
                         _mm_shuffle_epi32(last, _MM_SHUFFLE(2, 3, 0, 1)));
    last = _mm_max_epi16(
        last, _mm_shufflelo_epi16(last, _MM_SHUFFLE(2, 3, 0, 1)));
    return {mask, mask != 0 ? _mm_extract_epi16(last, 0) : -1};
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
            averageInto(pred_y, alt_y, kMbSize * kMbSize);
            averageInto(pred_u, alt_u, kHalf * kHalf);
            averageInto(pred_v, alt_v, kHalf * kHalf);
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
subtractBlock8x8(const uint8_t *src, const uint8_t *pred, int stride,
                 ResidualBlock &residual)
{
    for (int r = 0; r < kTxSize; ++r) {
        const __m128i d = _mm_sub_epi16(loadRow8Wide(src + r * stride),
                                        loadRow8Wide(pred + r * stride));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(residual.data() + r * kTxSize), d);
    }
}

uint32_t
reconstructBlock8x8(const uint8_t *pred, int stride,
                    const ResidualBlock &rres, uint8_t *out, int out_stride,
                    const uint8_t *src)
{
    __m128i sse = _mm_setzero_si128();
    for (int r = 0; r < kTxSize; ++r) {
        const __m128i res = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(rres.data() + r * kTxSize));
        // Exactly clamp(pred + rres, 0, 255): pred >= 0, so the add
        // saturates only above 32,767, which the pack clamps to 255
        // anyway.
        const __m128i sum = _mm_adds_epi16(loadRow8Wide(pred + r * stride),
                                           res);
        const __m128i recon = _mm_packus_epi16(sum, sum);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out + r * out_stride),
                         recon);
        if (src != nullptr) {
            // |d| <= 255: a block's 64 squares sum to at most
            // 4,161,600, so the int32 lanes cannot overflow.
            const __m128i d =
                _mm_sub_epi16(loadRow8Wide(src + r * stride),
                              _mm_unpacklo_epi8(recon, _mm_setzero_si128()));
            sse = _mm_add_epi32(sse, _mm_madd_epi16(d, d));
        }
    }
    sse = _mm_add_epi32(sse, _mm_shuffle_epi32(sse, _MM_SHUFFLE(1, 0, 3, 2)));
    sse = _mm_add_epi32(sse, _mm_shuffle_epi32(sse, _MM_SHUFFLE(2, 3, 0, 1)));
    return static_cast<uint32_t>(_mm_cvtsi128_si32(sse));
}

void
writeCoeffBlock(SyntaxWriter &writer, const CoeffBlock &levels)
{
    const auto &scan = zigzagOrder();
    const int last_sig = scanLevels(levels).last_sig;
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
    const LevelScan scan = scanLevels(levels);
    if (scan.last_sig < 0)
        return 1; // cbf.
    // A nonzero level costs a sign bit plus ue(|level| - 1), whose
    // length is 2 * bit_width(|level|) - 1.
    int magnitude_bits = 0;
    for (uint64_t m = scan.nonzero; m != 0; m &= m - 1) {
        const int level = levels[static_cast<size_t>(std::countr_zero(m))];
        magnitude_bits +=
            2 * std::bit_width(static_cast<unsigned>(std::abs(level)));
    }
    // cbf and the trailing EOB, then EOB-continue and significance for
    // every position up to the last nonzero level.
    return 2 + 2 * (scan.last_sig + 1) + magnitude_bits;
}

} // namespace wsva::video::codec
