#include "video/codec/decoder.h"

#include <algorithm>
#include <array>
#include <memory>

#include "common/logging.h"
#include "video/codec/bitstream.h"
#include "video/codec/entropy.h"
#include "video/codec/intra.h"
#include "video/codec/loop_filter.h"
#include "video/codec/mb_common.h"
#include "video/codec/transform.h"

namespace wsva::video::codec {

namespace {

constexpr int kHalf = kMbSize / 2;

/** Crop a padded, bordered frame to a plain display-sized one. */
Frame
cropFrame(const Frame &src, int w, int h)
{
    Frame out(w, h);
    for (int p = 0; p < 3; ++p) {
        const Plane &s = src.plane(p);
        Plane &d = out.plane(p);
        for (int y = 0; y < d.height(); ++y)
            std::copy_n(s.row(y), d.width(), d.row(y));
    }
    return out;
}

class DecoderEngine
{
  public:
    explicit DecoderEngine(const SequenceHeader &seq)
        : seq_(seq),
          pw_((seq.width + kMbSize - 1) / kMbSize * kMbSize),
          ph_((seq.height + kMbSize - 1) / kMbSize * kMbSize),
          mb_cols_(pw_ / kMbSize), mb_rows_(ph_ / kMbSize),
          grid_(static_cast<size_t>(mb_cols_ * mb_rows_))
    {
        refs_.fill(std::make_shared<const Frame>(pw_, ph_, 128, kRefBorder));
    }

    /** Decode one frame record; returns false on corrupt payload. */
    bool decodeFrame(const FrameHeader &hdr,
                     const std::vector<uint8_t> &payload,
                     std::vector<Frame> &output);

  private:
    void decodeMb(SyntaxReader &reader, Frame &recon, int mbx, int mby,
                  const FrameHeader &hdr);

    SequenceHeader seq_;
    int pw_;
    int ph_;
    int mb_cols_;
    int mb_rows_;
    std::vector<MbNeighbor> grid_;
    RefFrames refs_;
    EntropyModel model_;
};

void
DecoderEngine::decodeMb(SyntaxReader &reader, Frame &recon, int mbx,
                        int mby, const FrameHeader &hdr)
{
    const int x = mbx * kMbSize;
    const int y = mby * kMbSize;
    const Mv mvp = mvPredictor(grid_, mb_cols_, mbx, mby);

    uint8_t pred_y[kMbSize * kMbSize];
    uint8_t pred_u[kHalf * kHalf];
    uint8_t pred_v[kHalf * kHalf];

    bool inter = false;
    Mv grid_mv{};

    bool has_residual = true;
    std::array<CoeffBlock, 4> coeff_y;
    CoeffBlock coeff_u;
    CoeffBlock coeff_v;

    auto readCoeffs = [&] {
        for (auto &cb : coeff_y)
            readCoeffBlock(reader, cb);
        readCoeffBlock(reader, coeff_u);
        readCoeffBlock(reader, coeff_v);
    };

    if (hdr.type == FrameType::Key) {
        const auto mode =
            static_cast<IntraMode>(reader.readUInt(kCtxIntraMode) & 3u);
        intraPredict(recon.y(), x, y, kMbSize, mode, pred_y);
        intraPredict(recon.u(), x / 2, y / 2, kHalf, mode, pred_u);
        intraPredict(recon.v(), x / 2, y / 2, kHalf, mode, pred_v);
        readCoeffs();
    } else if (reader.readBit(kCtxSkip)) {
        // Skip: LAST reference, predictor MV, no residual.
        inter = true;
        grid_mv = mvp;
        std::array<Mv, 4> mvs{mvp, mvp, mvp, mvp};
        std::array<int, 4> ref{kRefLast, kRefLast, kRefLast, kRefLast};
        buildInterPrediction(refs_, mvs.data(), ref.data(), false, false, 0,
                             Mv{}, x, y, pred_y, pred_u, pred_v);
        has_residual = false;
    } else if (reader.readBit(kCtxIsInter) == 0) {
        const auto mode =
            static_cast<IntraMode>(reader.readUInt(kCtxIntraMode) & 3u);
        intraPredict(recon.y(), x, y, kMbSize, mode, pred_y);
        intraPredict(recon.u(), x / 2, y / 2, kHalf, mode, pred_u);
        intraPredict(recon.v(), x / 2, y / 2, kHalf, mode, pred_v);
        readCoeffs();
    } else {
        inter = true;
        const bool split = reader.readBit(kCtxSplit) != 0;
        std::array<Mv, 4> mvs{};
        std::array<int, 4> ref{};
        const int parts = split ? 4 : 1;
        for (int q = 0; q < parts; ++q) {
            ref[static_cast<size_t>(q)] = static_cast<int>(
                reader.readUInt(kCtxRefIdx) % kNumRefSlots);
            const auto dx =
                static_cast<int16_t>(reader.readSInt(kCtxMvdX));
            const auto dy =
                static_cast<int16_t>(reader.readSInt(kCtxMvdY));
            mvs[static_cast<size_t>(q)] = {
                static_cast<int16_t>(mvp.x + dx),
                static_cast<int16_t>(mvp.y + dy)};
        }
        if (!split) {
            for (int q = 1; q < 4; ++q) {
                mvs[static_cast<size_t>(q)] = mvs[0];
                ref[static_cast<size_t>(q)] = ref[0];
            }
        }
        bool compound = false;
        int ref2 = 0;
        Mv mv2{};
        if (seq_.codec == CodecType::VP9 && !split) {
            compound = reader.readBit(kCtxCompound) != 0;
            if (compound) {
                ref2 = static_cast<int>(reader.readUInt(kCtxRefIdx) %
                                        kNumRefSlots);
                mv2 = {static_cast<int16_t>(
                           mvp.x + reader.readSInt(kCtxMvdX)),
                       static_cast<int16_t>(
                           mvp.y + reader.readSInt(kCtxMvdY))};
            }
        }
        grid_mv = mvs[0];
        buildInterPrediction(refs_, mvs.data(), ref.data(), split, compound,
                             ref2, mv2, x, y, pred_y, pred_u, pred_v);
        readCoeffs();
    }

    // Reconstruct into the frame; a skipped macroblock has a zero
    // residual.
    auto reconstruct = [&](const uint8_t *pred, int stride,
                           const CoeffBlock &levels, Plane &plane, int px,
                           int py) {
        ResidualBlock rres{};
        if (has_residual)
            reconstructResidual(levels, hdr.qp, rres);
        reconstructBlock8x8(pred, stride, rres, plane.row(py) + px,
                            plane.stride(), nullptr);
    };
    for (int q = 0; q < 4; ++q) {
        const int qx = (q % 2) * 8;
        const int qy = (q / 2) * 8;
        reconstruct(pred_y + qy * kMbSize + qx, kMbSize,
                    coeff_y[static_cast<size_t>(q)], recon.y(), x + qx,
                    y + qy);
    }
    reconstruct(pred_u, kHalf, coeff_u, recon.u(), x / 2, y / 2);
    reconstruct(pred_v, kHalf, coeff_v, recon.v(), x / 2, y / 2);

    auto &nb = grid_[static_cast<size_t>(mby) *
                         static_cast<size_t>(mb_cols_) +
                     static_cast<size_t>(mbx)];
    nb.coded = true;
    nb.inter = inter;
    nb.mv = inter ? grid_mv : Mv{};
}

bool
DecoderEngine::decodeFrame(const FrameHeader &hdr,
                           const std::vector<uint8_t> &payload,
                           std::vector<Frame> &output)
{
    if (hdr.qp < 0 || hdr.qp > kMaxQp)
        return false;

    if (hdr.type == FrameType::Key)
        model_.reset();

    std::unique_ptr<SyntaxReader> reader;
    std::unique_ptr<GolombSyntaxReader> golomb_reader;
    if (seq_.codec == CodecType::VP9) {
        reader = std::make_unique<ArithSyntaxReader>(model_, payload.data(),
                                                     payload.size());
    } else {
        auto gr = std::make_unique<GolombSyntaxReader>(payload.data(),
                                                       payload.size());
        golomb_reader = std::move(gr);
    }
    SyntaxReader &rd =
        reader ? *reader : static_cast<SyntaxReader &>(*golomb_reader);

    // As in the encoder: one bordered frame, shared by the slots it
    // updates.
    auto recon = std::make_shared<Frame>(pw_, ph_, 128, kRefBorder);
    for (auto &nb : grid_)
        nb = MbNeighbor{};

    for (int mby = 0; mby < mb_rows_; ++mby)
        for (int mbx = 0; mbx < mb_cols_; ++mbx)
            decodeMb(rd, *recon, mbx, mby, hdr);

    if (golomb_reader && golomb_reader->overrun())
        return false;

    deblockFrame(*recon, hdr.qp);
    recon->extendBorder();

    if (seq_.codec == CodecType::VP9)
        model_.adapt();

    if (hdr.update_last)
        refs_[kRefLast] = recon;
    if (hdr.update_golden)
        refs_[kRefGolden] = recon;
    if (hdr.update_altref)
        refs_[kRefAltRef] = recon;

    if (hdr.show)
        output.push_back(cropFrame(*recon, seq_.width, seq_.height));
    return true;
}

} // namespace

std::optional<DecodedChunk>
decodeChunk(const std::vector<uint8_t> &bytes)
{
    auto stream = StreamReader::open(bytes);
    if (!stream)
        return std::nullopt;

    DecoderEngine engine(stream->sequence());
    DecodedChunk out;
    out.codec = stream->sequence().codec;
    out.fps = stream->sequence().fps;

    FrameHeader hdr;
    std::vector<uint8_t> payload;
    while (!stream->atEnd()) {
        if (!stream->nextFrame(hdr, payload))
            return std::nullopt;
        if (!engine.decodeFrame(hdr, payload, out.frames))
            return std::nullopt;
    }
    return out;
}

DecodedChunk
decodeChunkOrDie(const std::vector<uint8_t> &bytes)
{
    auto decoded = decodeChunk(bytes);
    WSVA_ASSERT(decoded.has_value(), "stream failed to decode");
    return std::move(*decoded);
}

} // namespace wsva::video::codec
