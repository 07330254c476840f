/**
 * @file
 * Motion vectors, block sampling, motion compensation (with half-pel
 * bilinear interpolation), and block distortion primitives.
 *
 * Motion vectors are stored in half-pel units throughout the codec.
 * The SAD kernels run on AVX2 for 8- and 16-pixel blocks on a CPU that
 * has it, with the same results as their scalar code. The half-pel
 * filter runs on SSE2, the x86-64 baseline, on whole rows.
 */

#ifndef WSVA_VIDEO_CODEC_MC_H
#define WSVA_VIDEO_CODEC_MC_H

#include <algorithm>
#include <cstdint>

#include "video/frame.h"

namespace wsva::video::codec {

/** Motion vector in half-pel units. */
struct Mv
{
    int16_t x = 0;
    int16_t y = 0;

    bool operator==(const Mv &other) const = default;
};

/**
 * Edge emulation, the one per-pixel clamp on the codec's read path:
 * copy the w x h window of @p src at (x, y) into @p out (row stride
 * w) with every coordinate clamped into the visible plane, the way
 * ffmpeg's emulated_edge_mc builds an overhanging block. Since a
 * margin replicates the edge, this equals reading an extended margin
 * in place.
 */
void emulateEdge(const Plane &src, int x, int y, int w, int h,
                 uint8_t *out);

/** True when the w x h window at (x, y) lies within @p src's margin. */
inline bool
withinMargin(const Plane &src, int x, int y, int w, int h)
{
    const int b = src.border();
    return x >= -b && y >= -b && x + w <= src.width() + b &&
           y + h <= src.height() + b;
}

/**
 * The w x h window of @p src at (x, y) as rows: in place (row stride
 * src.stride()) when it lies within the margin, else edge-emulated
 * into @p scratch (row stride w). @p stride receives the row stride.
 * A margin must have been extended (Plane::extendBorder) to be read.
 */
inline const uint8_t *
readWindow(const Plane &src, int x, int y, int w, int h, uint8_t *scratch,
           int &stride)
{
    if (withinMargin(src, x, y, w, h)) {
        stride = src.stride();
        return src.row(y) + x;
    }
    emulateEdge(src, x, y, w, h, scratch);
    stride = w;
    return scratch;
}

/**
 * Copy a w x h patch from @p src at (x, y) into @p out (row stride
 * w): row copies within the margin, edge emulation beyond it. The
 * one shared fetch of extractBlock and motionCompensate, inlined
 * because it sits inside the motion search inner loops.
 */
inline void
fetchPatch(const Plane &src, int x, int y, int w, int h, uint8_t *out)
{
    if (!withinMargin(src, x, y, w, h)) {
        emulateEdge(src, x, y, w, h, out);
        return;
    }
    for (int r = 0; r < h; ++r) {
        const uint8_t *row = src.row(y + r) + x;
        std::copy(row, row + w, out + r * w);
    }
}

/**
 * Sample an n x n motion-compensated prediction from @p ref at block
 * position (x, y) displaced by @p mv (half-pel). Out-of-frame samples
 * are edge-clamped. Any int16 vector is valid; n is 4, 8 or 16.
 */
void motionCompensate(const Plane &ref, int x, int y, int n, Mv mv,
                      uint8_t *out);

/** Copy an n x n block (edge-clamped) into @p out. */
void extractBlock(const Plane &src, int x, int y, int n, uint8_t *out);

/** Sum of absolute differences between two n*n sample arrays. */
uint32_t blockSad(const uint8_t *a, const uint8_t *b, int n);

/**
 * blockSad with an early exit: returns once the running sum, checked
 * every row (every two 16-pixel or four 8-pixel rows on AVX2), reaches
 * @p bound. The return value is exact when it is below @p bound and
 * otherwise only guaranteed to be >= @p bound, so strict less-than
 * acceptance tests against @p bound are unaffected.
 */
uint32_t blockSadBounded(const uint8_t *a, const uint8_t *b, int n,
                         uint32_t bound);

/**
 * SAD between a cached n x n source block @p cur (row stride n) and
 * the (edge-clamped) block of @p ref at (rx, ry), with the same
 * early-exit contract as blockSadBounded. The motion-search
 * workhorse: the source block is fetched once per macroblock instead
 * of once per candidate. n <= 64.
 */
uint32_t sadAgainstBlock(const uint8_t *cur, const Plane &ref, int rx,
                         int ry, int n, uint32_t bound);

/**
 * SAD between the n x n block at (x, y) in @p src and the
 * integer-pel displaced block in @p ref, both edge-clamped. n <= 64.
 */
uint32_t sadAt(const Plane &src, const Plane &ref, int x, int y, int n,
               int dx, int dy);

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_MC_H
