#include "video/codec/encoder.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"
#include "video/codec/bitstream.h"
#include "video/codec/entropy.h"
#include "video/codec/golomb.h"
#include "video/codec/intra.h"
#include "video/codec/loop_filter.h"
#include "video/codec/mb_common.h"
#include "video/codec/temporal_filter.h"
#include "video/codec/transform.h"

namespace wsva::video::codec {

namespace {

constexpr int kHalf = kMbSize / 2;

/** Pad a frame to macroblock-aligned dimensions by edge replication. */
Frame
padFrame(const Frame &src, int pw, int ph)
{
    if (src.width() == pw && src.height() == ph)
        return src;
    Frame out(pw, ph);
    for (int p = 0; p < 3; ++p) {
        const Plane &s = src.plane(p);
        Plane &d = out.plane(p);
        for (int y = 0; y < d.height(); ++y) {
            for (int x = 0; x < d.width(); ++x)
                d.at(x, y) = s.clampedAt(x, y);
        }
    }
    return out;
}

/** RD lambda for SSE distortion at a given quantizer. */
double
rdLambda(int qp, double scale)
{
    const double q = qstep(qp);
    return 0.57 * q * q * scale;
}

/** One fully evaluated macroblock coding candidate. */
struct Candidate
{
    bool inter = false;
    bool split = false;
    bool compound = false;
    IntraMode imode = IntraMode::Dc;
    std::array<Mv, 4> mv{};
    std::array<int, 4> ref{};
    Mv mv2{};
    int ref2 = 0;

    std::array<CoeffBlock, 4> coeff_y{};
    CoeffBlock coeff_u{};
    CoeffBlock coeff_v{};
    std::array<uint8_t, kMbSize * kMbSize> recon_y{};
    std::array<uint8_t, kHalf * kHalf> recon_u{};
    std::array<uint8_t, kHalf * kHalf> recon_v{};

    int nonzero = 0;
    double cost = 0.0;

    /** True if this candidate can be signaled with the skip flag. */
    bool
    skippable(Mv mvp) const
    {
        return inter && !split && !compound && ref[0] == kRefLast &&
               mv[0] == mvp && nonzero == 0;
    }
};

/** The per-sequence encoder engine. */
class Engine
{
  public:
    Engine(const EncoderConfig &cfg, FirstPassStats stats)
        : cfg_(cfg), tools_(resolveToolset(cfg)),
          rc_(cfg, std::move(stats), tools_.rc_tuning),
          pw_((cfg.width + kMbSize - 1) / kMbSize * kMbSize),
          ph_((cfg.height + kMbSize - 1) / kMbSize * kMbSize),
          mb_cols_(pw_ / kMbSize), mb_rows_(ph_ / kMbSize),
          grid_(static_cast<size_t>(mb_cols_ * mb_rows_))
    {
        for (auto &r : refs_)
            r = Frame(pw_, ph_, 128);
        ref_gen_.fill(0);
    }

    EncodedChunk run(const std::vector<Frame> &frames);

  private:
    void encodeFrame(const Frame &display_src, int display_idx,
                     FrameType type, const FrameHeader &hdr_flags,
                     StreamWriter &sw, EncodedChunk &chunk);
    Candidate decideMb(const Frame &src, const Frame &recon, int mbx,
                       int mby, FrameType type, int qp, double lambda);
    double evalResidual(const uint8_t *src_y, const uint8_t *src_u,
                        const uint8_t *src_v, const uint8_t *pred_y,
                        const uint8_t *pred_u, const uint8_t *pred_v,
                        int qp, double lambda, int mode_bits,
                        Candidate &cand) const;
    void writeMb(SyntaxWriter &writer, const Candidate &cand,
                 FrameType type, Mv mvp) const;

    EncoderConfig cfg_;
    Toolset tools_;
    RateController rc_;
    int pw_;
    int ph_;
    int mb_cols_;
    int mb_rows_;
    std::vector<MbNeighbor> grid_;
    std::array<Frame, kNumRefSlots> refs_;
    std::array<uint64_t, kNumRefSlots> ref_gen_;
    uint64_t frame_counter_ = 0;
    EntropyModel model_;
};

double
Engine::evalResidual(const uint8_t *src_y, const uint8_t *src_u,
                     const uint8_t *src_v, const uint8_t *pred_y,
                     const uint8_t *pred_u, const uint8_t *pred_v, int qp,
                     double lambda, int mode_bits, Candidate &cand) const
{
    uint64_t dist = 0;
    int bits = mode_bits;
    cand.nonzero = 0;

    ResidualBlock residual;
    ResidualBlock rres;

    // Four luma 8x8 transform blocks.
    for (int q = 0; q < 4; ++q) {
        const int qx = (q % 2) * 8;
        const int qy = (q / 2) * 8;
        for (int r = 0; r < 8; ++r) {
            for (int c = 0; c < 8; ++c) {
                const int idx = (qy + r) * kMbSize + qx + c;
                residual[static_cast<size_t>(r * 8 + c)] =
                    static_cast<int16_t>(static_cast<int>(src_y[idx]) -
                                         pred_y[idx]);
            }
        }
        auto &levels = cand.coeff_y[static_cast<size_t>(q)];
        cand.nonzero += transformQuantize(residual, qp, tools_.deadzone,
                                          tools_.coeff_opt, lambda, levels,
                                          rres);
        for (int r = 0; r < 8; ++r) {
            for (int c = 0; c < 8; ++c) {
                const int idx = (qy + r) * kMbSize + qx + c;
                const int v = pred_y[idx] +
                              rres[static_cast<size_t>(r * 8 + c)];
                cand.recon_y[static_cast<size_t>(idx)] =
                    static_cast<uint8_t>(std::clamp(v, 0, 255));
                const int d = static_cast<int>(src_y[idx]) -
                              cand.recon_y[static_cast<size_t>(idx)];
                dist += static_cast<uint64_t>(d * d);
            }
        }
        bits += estimateCoeffBits(levels);
    }

    // Chroma 8x8 blocks.
    auto chroma = [&](const uint8_t *src, const uint8_t *pred,
                      CoeffBlock &levels,
                      std::array<uint8_t, kHalf * kHalf> &recon) {
        for (int i = 0; i < kHalf * kHalf; ++i)
            residual[static_cast<size_t>(i)] = static_cast<int16_t>(
                static_cast<int>(src[i]) - pred[i]);
        cand.nonzero += transformQuantize(residual, qp, tools_.deadzone,
                                          tools_.coeff_opt, lambda, levels,
                                          rres);
        for (int i = 0; i < kHalf * kHalf; ++i) {
            const int v = pred[i] + rres[static_cast<size_t>(i)];
            recon[static_cast<size_t>(i)] =
                static_cast<uint8_t>(std::clamp(v, 0, 255));
            const int d = static_cast<int>(src[i]) -
                          recon[static_cast<size_t>(i)];
            dist += static_cast<uint64_t>(d * d);
        }
        bits += estimateCoeffBits(levels);
    };
    chroma(src_u, pred_u, cand.coeff_u, cand.recon_u);
    chroma(src_v, pred_v, cand.coeff_v, cand.recon_v);

    cand.cost = static_cast<double>(dist) + lambda * bits;
    return cand.cost;
}

Candidate
Engine::decideMb(const Frame &src, const Frame &recon, int mbx, int mby,
                 FrameType type, int qp, double lambda)
{
    const int x = mbx * kMbSize;
    const int y = mby * kMbSize;

    uint8_t src_y[kMbSize * kMbSize];
    uint8_t src_u[kHalf * kHalf];
    uint8_t src_v[kHalf * kHalf];
    extractBlock(src.y(), x, y, kMbSize, src_y);
    extractBlock(src.u(), x / 2, y / 2, kHalf, src_u);
    extractBlock(src.v(), x / 2, y / 2, kHalf, src_v);

    uint8_t pred_y[kMbSize * kMbSize];
    uint8_t pred_u[kHalf * kHalf];
    uint8_t pred_v[kHalf * kHalf];

    Candidate best;
    best.cost = 1e30;

    // ---- Intra candidates (always legal). -------------------------
    static constexpr IntraMode kModes[] = {
        IntraMode::Dc, IntraMode::Vertical, IntraMode::Horizontal,
        IntraMode::TrueMotion};
    const int intra_modes = std::clamp(tools_.num_intra_modes, 1, 4);
    for (int m = 0; m < intra_modes; ++m) {
        const IntraMode mode = kModes[m];
        intraPredict(recon.y(), x, y, kMbSize, mode, pred_y);
        intraPredict(recon.u(), x / 2, y / 2, kHalf, mode, pred_u);
        intraPredict(recon.v(), x / 2, y / 2, kHalf, mode, pred_v);
        Candidate cand;
        cand.inter = false;
        cand.imode = mode;
        int mode_bits = ueBits(static_cast<uint32_t>(mode));
        if (type != FrameType::Key)
            mode_bits += 2; // skip=0 + is_inter=0.
        evalResidual(src_y, src_u, src_v, pred_y, pred_u, pred_v, qp,
                     lambda, mode_bits, cand);
        if (cand.cost < best.cost)
            best = cand;
    }

    if (type == FrameType::Key)
        return best;

    // ---- Inter candidates. ----------------------------------------
    const Mv mvp = mvPredictor(grid_, mb_cols_, mbx, mby);

    // Skip candidate: predictor MV on LAST, zero residual.
    {
        Candidate cand;
        cand.inter = true;
        cand.ref = {kRefLast, kRefLast, kRefLast, kRefLast};
        cand.mv = {mvp, mvp, mvp, mvp};
        buildInterPrediction(refs_, cand.mv.data(), cand.ref.data(), false,
                             false, 0, Mv{}, x, y, pred_y, pred_u, pred_v);
        std::copy(pred_y, pred_y + kMbSize * kMbSize, cand.recon_y.begin());
        std::copy(pred_u, pred_u + kHalf * kHalf, cand.recon_u.begin());
        std::copy(pred_v, pred_v + kHalf * kHalf, cand.recon_v.begin());
        uint64_t dist = blockSse(src_y, pred_y, kMbSize) +
                        blockSse(src_u, pred_u, kHalf) +
                        blockSse(src_v, pred_v, kHalf);
        cand.nonzero = 0;
        for (auto &cb : cand.coeff_y)
            cb.fill(0);
        cand.coeff_u.fill(0);
        cand.coeff_v.fill(0);
        cand.cost = static_cast<double>(dist) + lambda * 1.0;
        if (cand.cost < best.cost)
            best = cand;
    }

    // Motion search per distinct reference slot.
    struct RefSearch
    {
        int slot = 0;
        MotionResult result;
        bool valid = false;
    };
    std::array<RefSearch, kNumRefSlots> searches;
    int distinct = 0;
    for (int slot = 0; slot < std::clamp(cfg_.num_refs, 1, 3); ++slot) {
        bool duplicate = false;
        for (int s = 0; s < slot; ++s) {
            if (searches[static_cast<size_t>(s)].valid &&
                ref_gen_[static_cast<size_t>(s)] ==
                    ref_gen_[static_cast<size_t>(slot)]) {
                duplicate = true;
                break;
            }
        }
        if (duplicate)
            continue;
        auto &rs = searches[static_cast<size_t>(slot)];
        rs.slot = slot;
        rs.result = searchMotion(src.y(),
                                 refs_[static_cast<size_t>(slot)].y(), x, y,
                                 kMbSize, mvp, tools_.search_range,
                                 tools_.search_kind);
        rs.valid = true;
        ++distinct;
    }

    // Rank searched refs by SAD cost.
    std::array<int, kNumRefSlots> order{};
    int n_order = 0;
    for (int slot = 0; slot < kNumRefSlots; ++slot) {
        if (searches[static_cast<size_t>(slot)].valid)
            order[static_cast<size_t>(n_order++)] = slot;
    }
    // Tiny fixed-size insertion sort (<= 3 entries); also avoids a
    // GCC 12 -Warray-bounds false positive that std::sort trips here.
    for (int i = 1; i < n_order; ++i) {
        for (int j = i; j > 0; --j) {
            const auto a = static_cast<size_t>(
                order[static_cast<size_t>(j - 1)]);
            const auto b = static_cast<size_t>(
                order[static_cast<size_t>(j)]);
            if (searches[b].result.sad < searches[a].result.sad) {
                std::swap(order[static_cast<size_t>(j - 1)],
                          order[static_cast<size_t>(j)]);
            } else {
                break;
            }
        }
    }

    // Full-RD inter 16x16 on the best one or two refs.
    const int rd_refs = std::min(n_order, cfg_.rdo_rounds >= 2 ? 2 : 1);
    for (int i = 0; i < rd_refs; ++i) {
        const auto &rs = searches[static_cast<size_t>(
            order[static_cast<size_t>(i)])];
        Candidate cand;
        cand.inter = true;
        cand.ref = {rs.slot, rs.slot, rs.slot, rs.slot};
        cand.mv = {rs.result.mv, rs.result.mv, rs.result.mv, rs.result.mv};
        buildInterPrediction(refs_, cand.mv.data(), cand.ref.data(), false,
                             false, 0, Mv{}, x, y, pred_y, pred_u, pred_v);
        int mode_bits = 2 + ueBits(static_cast<uint32_t>(rs.slot)) +
                        estimateSIntBits(rs.result.mv.x - mvp.x) +
                        estimateSIntBits(rs.result.mv.y - mvp.y) +
                        (cfg_.codec == CodecType::VP9 ? 1 : 0) + 1;
        evalResidual(src_y, src_u, src_v, pred_y, pred_u, pred_v, qp,
                     lambda, mode_bits, cand);
        if (cand.cost < best.cost)
            best = cand;
    }

    // Compound prediction (VP9 profile, needs two distinct refs).
    if (tools_.allow_compound && cfg_.codec == CodecType::VP9 &&
        n_order >= 2 && distinct >= 2) {
        const auto &r0 = searches[static_cast<size_t>(
            order[0])];
        const auto &r1 = searches[static_cast<size_t>(
            order[1])];
        Candidate cand;
        cand.inter = true;
        cand.compound = true;
        cand.ref = {r0.slot, r0.slot, r0.slot, r0.slot};
        cand.mv = {r0.result.mv, r0.result.mv, r0.result.mv, r0.result.mv};
        cand.ref2 = r1.slot;
        cand.mv2 = r1.result.mv;
        buildInterPrediction(refs_, cand.mv.data(), cand.ref.data(), false,
                             true, cand.ref2, cand.mv2, x, y, pred_y,
                             pred_u, pred_v);
        int mode_bits = 3 + ueBits(static_cast<uint32_t>(r0.slot)) +
                        ueBits(static_cast<uint32_t>(r1.slot)) +
                        estimateSIntBits(r0.result.mv.x - mvp.x) +
                        estimateSIntBits(r0.result.mv.y - mvp.y) +
                        estimateSIntBits(r1.result.mv.x - mvp.x) +
                        estimateSIntBits(r1.result.mv.y - mvp.y) + 2;
        evalResidual(src_y, src_u, src_v, pred_y, pred_u, pred_v, qp,
                     lambda, mode_bits, cand);
        if (cand.cost < best.cost)
            best = cand;
    }

    // Split into four 8x8 partitions on the best ref.
    if (tools_.allow_split && cfg_.rdo_rounds >= 2 && n_order >= 1) {
        const int slot = order[0];
        Candidate cand;
        cand.inter = true;
        cand.split = true;
        int mode_bits = 3 + 1;
        for (int q = 0; q < 4; ++q) {
            const int qx = (q % 2) * 8;
            const int qy = (q / 2) * 8;
            const MotionResult mr = searchMotion(
                src.y(), refs_[static_cast<size_t>(slot)].y(), x + qx,
                y + qy, 8, mvp, tools_.search_range, tools_.search_kind);
            cand.mv[static_cast<size_t>(q)] = mr.mv;
            cand.ref[static_cast<size_t>(q)] = slot;
            mode_bits += ueBits(static_cast<uint32_t>(slot)) +
                         estimateSIntBits(mr.mv.x - mvp.x) +
                         estimateSIntBits(mr.mv.y - mvp.y);
        }
        buildInterPrediction(refs_, cand.mv.data(), cand.ref.data(), true,
                             false, 0, Mv{}, x, y, pred_y, pred_u, pred_v);
        evalResidual(src_y, src_u, src_v, pred_y, pred_u, pred_v, qp,
                     lambda, mode_bits, cand);
        if (cand.cost < best.cost)
            best = cand;
    }

    return best;
}

void
Engine::writeMb(SyntaxWriter &writer, const Candidate &cand, FrameType type,
                Mv mvp) const
{
    auto writeCoeffs = [&] {
        for (const auto &cb : cand.coeff_y)
            writeCoeffBlock(writer, cb);
        writeCoeffBlock(writer, cand.coeff_u);
        writeCoeffBlock(writer, cand.coeff_v);
    };

    if (type == FrameType::Key) {
        writer.writeUInt(kCtxIntraMode,
                         static_cast<uint32_t>(cand.imode));
        writeCoeffs();
        return;
    }

    if (cand.skippable(mvp)) {
        writer.writeBit(kCtxSkip, 1);
        return;
    }
    writer.writeBit(kCtxSkip, 0);
    writer.writeBit(kCtxIsInter, cand.inter ? 1 : 0);
    if (!cand.inter) {
        writer.writeUInt(kCtxIntraMode,
                         static_cast<uint32_t>(cand.imode));
        writeCoeffs();
        return;
    }
    writer.writeBit(kCtxSplit, cand.split ? 1 : 0);
    const int parts = cand.split ? 4 : 1;
    for (int q = 0; q < parts; ++q) {
        writer.writeUInt(kCtxRefIdx,
                         static_cast<uint32_t>(
                             cand.ref[static_cast<size_t>(q)]));
        writer.writeSInt(kCtxMvdX,
                         cand.mv[static_cast<size_t>(q)].x - mvp.x);
        writer.writeSInt(kCtxMvdY,
                         cand.mv[static_cast<size_t>(q)].y - mvp.y);
    }
    if (cfg_.codec == CodecType::VP9 && !cand.split) {
        writer.writeBit(kCtxCompound, cand.compound ? 1 : 0);
        if (cand.compound) {
            writer.writeUInt(kCtxRefIdx,
                             static_cast<uint32_t>(cand.ref2));
            writer.writeSInt(kCtxMvdX, cand.mv2.x - mvp.x);
            writer.writeSInt(kCtxMvdY, cand.mv2.y - mvp.y);
        }
    }
    writeCoeffs();
}

void
Engine::encodeFrame(const Frame &display_src, int display_idx,
                    FrameType type, const FrameHeader &hdr_flags,
                    StreamWriter &sw, EncodedChunk &chunk)
{
    const int qp = rc_.pickQp(display_idx, type);
    const double lambda = rdLambda(qp, tools_.lambda_scale);
    const Frame src = padFrame(display_src, pw_, ph_);

    if (type == FrameType::Key)
        model_.reset();

    std::unique_ptr<SyntaxWriter> writer;
    if (cfg_.codec == CodecType::VP9)
        writer = std::make_unique<ArithSyntaxWriter>(model_);
    else
        writer = std::make_unique<GolombSyntaxWriter>();

    Frame recon(pw_, ph_, 128);
    for (auto &nb : grid_)
        nb = MbNeighbor{};

    for (int mby = 0; mby < mb_rows_; ++mby) {
        for (int mbx = 0; mbx < mb_cols_; ++mbx) {
            const Mv mvp = mvPredictor(grid_, mb_cols_, mbx, mby);
            Candidate cand =
                decideMb(src, recon, mbx, mby, type, qp, lambda);
            writeMb(*writer, cand, type, mvp);

            // Commit reconstruction.
            const int x = mbx * kMbSize;
            const int y = mby * kMbSize;
            for (int r = 0; r < kMbSize; ++r)
                std::copy(cand.recon_y.begin() + r * kMbSize,
                          cand.recon_y.begin() + (r + 1) * kMbSize,
                          recon.y().row(y + r) + x);
            for (int r = 0; r < kHalf; ++r) {
                std::copy(cand.recon_u.begin() + r * kHalf,
                          cand.recon_u.begin() + (r + 1) * kHalf,
                          recon.u().row(y / 2 + r) + x / 2);
                std::copy(cand.recon_v.begin() + r * kHalf,
                          cand.recon_v.begin() + (r + 1) * kHalf,
                          recon.v().row(y / 2 + r) + x / 2);
            }

            auto &nb = grid_[static_cast<size_t>(mby) *
                                 static_cast<size_t>(mb_cols_) +
                             static_cast<size_t>(mbx)];
            nb.coded = true;
            nb.inter = cand.inter;
            nb.mv = cand.inter ? cand.mv[0] : Mv{};
        }
    }

    deblockFrame(recon, qp);

    if (cfg_.codec == CodecType::VP9)
        model_.adapt();

    FrameHeader hdr = hdr_flags;
    hdr.type = type;
    hdr.qp = qp;
    const auto payload = writer->finish();
    sw.addFrame(hdr, payload);

    ++frame_counter_;
    if (hdr.update_last) {
        refs_[kRefLast] = recon;
        ref_gen_[kRefLast] = frame_counter_;
    }
    if (hdr.update_golden) {
        refs_[kRefGolden] = recon;
        ref_gen_[kRefGolden] = frame_counter_;
    }
    if (hdr.update_altref) {
        refs_[kRefAltRef] = recon;
        ref_gen_[kRefAltRef] = frame_counter_;
    }

    const uint64_t bits = (payload.size() + 6) * 8;
    rc_.onFrameEncoded(display_idx, type, qp, static_cast<double>(bits));
    chunk.frames.push_back({type, hdr.show, qp, bits});
}

EncodedChunk
Engine::run(const std::vector<Frame> &frames)
{
    WSVA_ASSERT(!frames.empty(), "cannot encode an empty sequence");
    for (const auto &f : frames) {
        WSVA_ASSERT(f.width() == cfg_.width && f.height() == cfg_.height,
                    "frame size %dx%d does not match config %dx%d",
                    f.width(), f.height(), cfg_.width, cfg_.height);
    }

    EncodedChunk chunk;
    chunk.codec = cfg_.codec;
    chunk.width = cfg_.width;
    chunk.height = cfg_.height;
    chunk.fps = cfg_.fps;

    SequenceHeader seq;
    seq.codec = cfg_.codec;
    seq.width = cfg_.width;
    seq.height = cfg_.height;
    seq.fps = cfg_.fps;
    seq.frame_count = static_cast<int>(frames.size());
    StreamWriter sw(seq);

    const int n = static_cast<int>(frames.size());
    const int gop = std::max(1, cfg_.gop_length);
    const bool use_arf =
        tools_.use_arf && cfg_.codec == CodecType::VP9;

    for (int gop_start = 0; gop_start < n; gop_start += gop) {
        const int gop_end = std::min(n, gop_start + gop);

        FrameHeader key_hdr;
        key_hdr.show = true;
        key_hdr.update_last = true;
        key_hdr.update_golden = true;
        key_hdr.update_altref = true;
        encodeFrame(frames[static_cast<size_t>(gop_start)], gop_start,
                    FrameType::Key, key_hdr, sw, chunk);

        if (use_arf && gop_end - gop_start > 4) {
            const int center = gop_start + (gop_end - gop_start) / 2;
            const Frame filtered = temporalFilter(
                frames, center, 2, tools_.tf_iterations);
            FrameHeader arf_hdr;
            arf_hdr.show = false;
            arf_hdr.update_last = false;
            arf_hdr.update_golden = false;
            arf_hdr.update_altref = true;
            encodeFrame(filtered, center, FrameType::AltRef, arf_hdr, sw,
                        chunk);
        }

        for (int i = gop_start + 1; i < gop_end; ++i) {
            FrameHeader hdr;
            hdr.show = true;
            hdr.update_last = true;
            hdr.update_golden =
                tools_.golden_interval > 0 &&
                (i - gop_start) % tools_.golden_interval == 0;
            hdr.update_altref = false;
            encodeFrame(frames[static_cast<size_t>(i)], i,
                        FrameType::Inter, hdr, sw, chunk);
        }
    }

    chunk.bytes = sw.take();
    return chunk;
}

} // namespace

Toolset
resolveToolset(const EncoderConfig &cfg)
{
    Toolset t;
    if (!cfg.hardware) {
        // Software reference encoder: full tool set, diamond ME.
        t.search_kind = SearchKind::Diamond;
        t.search_range = cfg.search_range;
        t.num_intra_modes = cfg.rdo_rounds >= 2 ? 4 : 2;
        t.allow_split = true;
        t.allow_compound = cfg.codec == CodecType::VP9;
        t.use_arf = cfg.enable_arf && cfg.codec == CodecType::VP9;
        t.tf_iterations = 1;
        t.golden_interval = 8;
        t.lambda_scale = 1.0;
        t.deadzone = 0.33;
        t.coeff_opt = true;
        t.rc_tuning = {true, 1.5, 0.7};
        return t;
    }

    // Hardware (VCU) profile. The exhaustive windowed search is a
    // strength of the SRAM reference store; the launch-time weaknesses
    // are in rate control, RDO calibration, and missing trellis.
    // Tuning levels replay the post-deployment improvements of
    // Figure 10 (better GOP structure, hardware-statistics use,
    // additional reference frames, rate-control ideas imported from
    // the software encoders).
    const int lvl = std::clamp(cfg.tuning_level, 0, 8);
    t.search_kind = SearchKind::Exhaustive;
    t.search_range = std::min(cfg.search_range, 12);
    t.coeff_opt = false; // Never gained trellis (pipelined datapath).
    t.num_intra_modes = 4;
    t.allow_split = true;
    t.allow_compound = cfg.codec == CodecType::VP9 && lvl >= 3;
    t.use_arf = cfg.enable_arf && cfg.codec == CodecType::VP9 && lvl >= 4;
    t.tf_iterations = lvl >= 7 ? 2 : 1;
    t.golden_interval = 8;
    // Launch-time lambda and deadzone were miscalibrated; tuned
    // gradually post-deployment.
    t.lambda_scale = 1.30 - 0.0375 * lvl;
    t.deadzone = 0.45 - 0.015 * lvl;
    t.rc_tuning.adapt_rate_model = lvl >= 1;
    t.rc_tuning.keyframe_boost = lvl >= 2 ? 1.5 : 1.0;
    t.rc_tuning.complexity_exponent = lvl >= 5 ? 0.7 : 1.0;
    return t;
}

EncodedChunk
encodeSequenceWithStats(const EncoderConfig &cfg,
                        const std::vector<Frame> &frames,
                        FirstPassStats stats)
{
    Engine engine(cfg, std::move(stats));
    return engine.run(frames);
}

EncodedChunk
encodeSequence(const EncoderConfig &cfg, const std::vector<Frame> &frames)
{
    FirstPassStats stats;
    if (cfg.rc_mode != RcMode::ConstQp)
        stats = runFirstPass(frames);
    return encodeSequenceWithStats(cfg, frames, std::move(stats));
}

} // namespace wsva::video::codec
