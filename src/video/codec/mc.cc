#include "video/codec/mc.h"

#include <algorithm>

#include "common/logging.h"

namespace wsva::video::codec {

void
emulateEdge(const Plane &src, int x, int y, int w, int h, uint8_t *out)
{
    const int max_x = src.width() - 1;
    const int max_y = src.height() - 1;
    for (int r = 0; r < h; ++r) {
        const uint8_t *row = src.row(std::clamp(y + r, 0, max_y));
        for (int c = 0; c < w; ++c)
            out[r * w + c] = row[std::clamp(x + c, 0, max_x)];
    }
}

void
extractBlock(const Plane &src, int x, int y, int n, uint8_t *out)
{
    fetchPatch(src, x, y, n, n, out);
}

void
motionCompensate(const Plane &ref, int x, int y, int n, Mv mv, uint8_t *out)
{
    const int ix = x + (mv.x >> 1);
    const int iy = y + (mv.y >> 1);
    const bool half_x = mv.x & 1;
    const bool half_y = mv.y & 1;

    if (!half_x && !half_y) {
        fetchPatch(ref, ix, iy, n, n, out);
        return;
    }

    // Bilinear half-pel over an (n+1) x (n+1) window, read in place.
    WSVA_ASSERT(n <= 64, "MC block too large");
    uint8_t scratch[65 * 65];
    int stride = 0;
    const uint8_t *p = readWindow(ref, ix, iy, n + 1, n + 1, scratch, stride);
    for (int r = 0; r < n; ++r) {
        const uint8_t *p0 = p + r * stride;
        const uint8_t *p1 = p0 + stride;
        uint8_t *o = out + r * n;
        if (half_x && half_y) {
            for (int c = 0; c < n; ++c)
                o[c] = static_cast<uint8_t>(
                    (p0[c] + p0[c + 1] + p1[c] + p1[c + 1] + 2) >> 2);
        } else if (half_x) {
            for (int c = 0; c < n; ++c)
                o[c] = static_cast<uint8_t>((p0[c] + p0[c + 1] + 1) >> 1);
        } else {
            for (int c = 0; c < n; ++c)
                o[c] = static_cast<uint8_t>((p0[c] + p1[c] + 1) >> 1);
        }
    }
}

uint32_t
blockSad(const uint8_t *a, const uint8_t *b, int n)
{
    uint32_t acc = 0;
    const int count = n * n;
    for (int i = 0; i < count; ++i)
        acc += static_cast<uint32_t>(std::abs(int(a[i]) - int(b[i])));
    return acc;
}

uint32_t
blockSadBounded(const uint8_t *a, const uint8_t *b, int n, uint32_t bound)
{
    uint32_t acc = 0;
    for (int r = 0; r < n; ++r) {
        const uint8_t *pa = a + r * n;
        const uint8_t *pb = b + r * n;
        for (int c = 0; c < n; ++c)
            acc += static_cast<uint32_t>(
                std::abs(int(pa[c]) - int(pb[c])));
        if (acc >= bound)
            return acc;
    }
    return acc;
}

uint32_t
sadAgainstBlock(const uint8_t *cur, const Plane &ref, int rx, int ry,
                int n, uint32_t bound)
{
    WSVA_ASSERT(n <= 64, "SAD block too large");
    uint8_t scratch[64 * 64];
    int stride = 0;
    const uint8_t *p = readWindow(ref, rx, ry, n, n, scratch, stride);
    uint32_t acc = 0;
    for (int r = 0; r < n; ++r) {
        const uint8_t *s = cur + r * n;
        const uint8_t *q = p + r * stride;
        for (int c = 0; c < n; ++c)
            acc += static_cast<uint32_t>(std::abs(int(s[c]) - int(q[c])));
        if (acc >= bound)
            return acc;
    }
    return acc;
}

uint64_t
blockSse(const uint8_t *a, const uint8_t *b, int n)
{
    uint64_t acc = 0;
    const int count = n * n;
    for (int i = 0; i < count; ++i) {
        const int d = int(a[i]) - int(b[i]);
        acc += static_cast<uint64_t>(d * d);
    }
    return acc;
}

uint32_t
sadAt(const Plane &src, const Plane &ref, int x, int y, int n, int dx,
      int dy)
{
    WSVA_ASSERT(n <= 64, "SAD block too large");
    uint8_t src_scratch[64 * 64];
    uint8_t ref_scratch[64 * 64];
    int src_stride = 0;
    int ref_stride = 0;
    const uint8_t *s =
        readWindow(src, x, y, n, n, src_scratch, src_stride);
    const uint8_t *p =
        readWindow(ref, x + dx, y + dy, n, n, ref_scratch, ref_stride);
    uint32_t acc = 0;
    for (int r = 0; r < n; ++r) {
        const uint8_t *sr = s + r * src_stride;
        const uint8_t *pr = p + r * ref_stride;
        for (int c = 0; c < n; ++c)
            acc += static_cast<uint32_t>(std::abs(int(sr[c]) - int(pr[c])));
    }
    return acc;
}

} // namespace wsva::video::codec
