#include "video/codec/intra.h"

#include <algorithm>

#include "common/logging.h"
#include "video/codec/mc.h"

namespace wsva::video::codec {

void
intraPredict(const Plane &recon, int x, int y, int n, IntraMode mode,
             uint8_t *out)
{
    const bool has_top = y > 0;
    const bool has_left = x > 0;

    // Gather neighbors (clamped to plane edges on the far side). Only
    // the visible pixels count as inside: the margin of a plane under
    // reconstruction is not extended yet.
    const auto gather = [&recon](int px, int py, int w, int h,
                                 uint8_t *out) {
        if (px >= 0 && py >= 0 && px + w <= recon.width() &&
            py + h <= recon.height()) {
            for (int r = 0; r < h; ++r)
                std::copy_n(recon.row(py + r) + px, w, out + r * w);
        } else {
            emulateEdge(recon, px, py, w, h, out);
        }
    };
    uint8_t top[64];
    uint8_t left[64];
    uint8_t corner = 128;
    WSVA_ASSERT(n <= 64, "intra block too large");
    if (has_top)
        gather(x, y - 1, n, 1, top);
    else
        std::fill_n(top, n, 128);
    if (has_left)
        gather(x - 1, y, 1, n, left);
    else
        std::fill_n(left, n, 128);
    if (has_top && has_left)
        gather(x - 1, y - 1, 1, 1, &corner);

    switch (mode) {
      case IntraMode::Dc: {
        uint32_t acc = 0;
        uint32_t cnt = 0;
        if (has_top) {
            for (int i = 0; i < n; ++i)
                acc += top[i];
            cnt += static_cast<uint32_t>(n);
        }
        if (has_left) {
            for (int i = 0; i < n; ++i)
                acc += left[i];
            cnt += static_cast<uint32_t>(n);
        }
        const uint8_t dc = cnt > 0
            ? static_cast<uint8_t>((acc + cnt / 2) / cnt)
            : 128;
        std::fill(out, out + n * n, dc);
        break;
      }
      case IntraMode::Vertical:
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                out[r * n + c] = top[c];
        break;
      case IntraMode::Horizontal:
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                out[r * n + c] = left[r];
        break;
      case IntraMode::TrueMotion:
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                const int v = static_cast<int>(left[r]) + top[c] - corner;
                out[r * n + c] =
                    static_cast<uint8_t>(std::clamp(v, 0, 255));
            }
        }
        break;
      default:
        panic("bad intra mode %d", static_cast<int>(mode));
    }
}

} // namespace wsva::video::codec
