#include "video/scaler.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/profiler.h"

namespace wsva::video {

namespace {

/** Source samples [begin, end) that one output sample averages. */
struct Span
{
    int begin;
    int end;
};

/** The Span of each of @p out_len outputs over @p in_len samples. */
std::vector<Span>
boxSpans(int in_len, int out_len)
{
    const double scale = static_cast<double>(in_len) / out_len;
    std::vector<Span> spans(static_cast<size_t>(out_len));
    for (int i = 0; i < out_len; ++i) {
        const int begin = static_cast<int>(std::floor(i * scale));
        const int end = std::max(begin + 1,
            static_cast<int>(std::ceil((i + 1) * scale)));
        spans[static_cast<size_t>(i)] = {begin, std::min(end, in_len)};
    }
    return spans;
}

/**
 * Area-average downscale of one plane. The spans are computed once per
 * plane; each output row first sums its source rows column by column,
 * then each output sample sums its span of those column sums, which is
 * the same integer as summing its source pixels one by one.
 */
Plane
boxDownscale(const Plane &src, int dw, int dh)
{
    Plane dst(dw, dh);
    const std::vector<Span> cols = boxSpans(src.width(), dw);
    const std::vector<Span> rows = boxSpans(src.height(), dh);
    std::vector<uint32_t> col_sums(static_cast<size_t>(src.width()));
    for (int y = 0; y < dh; ++y) {
        const Span ys = rows[static_cast<size_t>(y)];
        std::fill(col_sums.begin(), col_sums.end(), 0u);
        for (int yy = ys.begin; yy < ys.end; ++yy) {
            const uint8_t *in = src.row(yy);
            for (size_t xx = 0; xx < col_sums.size(); ++xx)
                col_sums[xx] += in[xx];
        }
        uint8_t *out = dst.row(y);
        for (int x = 0; x < dw; ++x) {
            const Span xs = cols[static_cast<size_t>(x)];
            uint32_t acc = 0;
            for (int xx = xs.begin; xx < xs.end; ++xx)
                acc += col_sums[static_cast<size_t>(xx)];
            const auto n = static_cast<uint32_t>((xs.end - xs.begin) *
                                                 (ys.end - ys.begin));
            out[x] = static_cast<uint8_t>((acc + n / 2) / n);
        }
    }
    return dst;
}

/** Bilinear upscale of one plane. */
Plane
bilinearUpscale(const Plane &src, int dw, int dh)
{
    Plane dst(dw, dh);
    const double sx = static_cast<double>(src.width()) / dw;
    const double sy = static_cast<double>(src.height()) / dh;
    for (int y = 0; y < dh; ++y) {
        const double fy = (y + 0.5) * sy - 0.5;
        const int y0 = static_cast<int>(std::floor(fy));
        const double wy = fy - y0;
        for (int x = 0; x < dw; ++x) {
            const double fx = (x + 0.5) * sx - 0.5;
            const int x0 = static_cast<int>(std::floor(fx));
            const double wx = fx - x0;
            const double p00 = src.clampedAt(x0, y0);
            const double p10 = src.clampedAt(x0 + 1, y0);
            const double p01 = src.clampedAt(x0, y0 + 1);
            const double p11 = src.clampedAt(x0 + 1, y0 + 1);
            const double v = p00 * (1 - wx) * (1 - wy) +
                             p10 * wx * (1 - wy) +
                             p01 * (1 - wx) * wy +
                             p11 * wx * wy;
            dst.at(x, y) = static_cast<uint8_t>(
                std::clamp(static_cast<int>(std::lround(v)), 0, 255));
        }
    }
    return dst;
}

} // namespace

Plane
scalePlane(const Plane &src, int dst_width, int dst_height)
{
    static const int kPhase = prof::phaseId("codec/interpolate");
    prof::ProfScope prof_scope(kPhase);
    WSVA_ASSERT(dst_width > 0 && dst_height > 0,
                "bad scale target %dx%d", dst_width, dst_height);
    if (dst_width == src.width() && dst_height == src.height())
        return src;
    if (dst_width <= src.width() && dst_height <= src.height())
        return boxDownscale(src, dst_width, dst_height);
    return bilinearUpscale(src, dst_width, dst_height);
}

Frame
scaleFrame(const Frame &src, int dst_width, int dst_height)
{
    WSVA_ASSERT(dst_width % 2 == 0 && dst_height % 2 == 0,
                "scale target must be even for 4:2:0, got %dx%d",
                dst_width, dst_height);
    Frame out(dst_width, dst_height);
    out.y() = scalePlane(src.y(), dst_width, dst_height);
    out.u() = scalePlane(src.u(), dst_width / 2, dst_height / 2);
    out.v() = scalePlane(src.v(), dst_width / 2, dst_height / 2);
    return out;
}

const char *
resolutionName(Resolution r)
{
    switch (r.height) {
      case 144: return "144p";
      case 240: return "240p";
      case 360: return "360p";
      case 480: return "480p";
      case 720: return "720p";
      case 1080: return "1080p";
      case 1440: return "1440p";
      case 2160: return "2160p";
      case 4320: return "4320p";
      default: return "custom";
    }
}

const std::vector<Resolution> &
standardLadder()
{
    static const std::vector<Resolution> ladder = {
        {256, 144},  {426, 240},   {640, 360},   {854, 480},  {1280, 720},
        {1920, 1080}, {2560, 1440}, {3840, 2160}, {7680, 4320},
    };
    return ladder;
}

std::vector<Resolution>
outputsForInput(Resolution input)
{
    std::vector<Resolution> out;
    for (const auto &r : standardLadder()) {
        if (r.height <= input.height)
            out.push_back(r);
    }
    if (out.empty())
        out.push_back(standardLadder().front());
    // Highest resolution first, matching the paper's MOT diagrams.
    std::reverse(out.begin(), out.end());
    return out;
}

} // namespace wsva::video
