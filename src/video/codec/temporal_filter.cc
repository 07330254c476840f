#include "video/codec/temporal_filter.h"

#include <algorithm>

#include "common/logging.h"
#include "common/profiler.h"
#include "video/codec/mc.h"
#include "video/codec/motion_search.h"

namespace wsva::video::codec {

namespace {

constexpr int kBlock = 16;

/**
 * One application of the 3-frame filter: each 16x16 block of the
 * center luma is blended with motion-aligned blocks from the previous
 * and next frames (weights center:neighbor = strength:1 each side
 * when the alignment is good; misaligned neighbors are dropped).
 */
Frame
filterOnce(const Frame &prev, const Frame &center, const Frame &next,
           bool has_prev, bool has_next, int strength)
{
    Frame out = center;
    const Plane &cy = center.y();
    const int width = cy.width();
    const int height = cy.height();

    uint8_t cur[kBlock * kBlock];
    uint8_t aligned[kBlock * kBlock];

    for (int by = 0; by < height; by += kBlock) {
        for (int bx = 0; bx < width; bx += kBlock) {
            extractBlock(cy, bx, by, kBlock, cur);
            uint32_t acc[kBlock * kBlock];
            for (int i = 0; i < kBlock * kBlock; ++i)
                acc[i] = static_cast<uint32_t>(cur[i]) *
                         static_cast<uint32_t>(strength);
            uint32_t weight = static_cast<uint32_t>(strength);

            for (int side = 0; side < 2; ++side) {
                const bool avail = side == 0 ? has_prev : has_next;
                if (!avail)
                    continue;
                const Frame &nb = side == 0 ? prev : next;
                const MotionResult mr =
                    searchMotion(cy, nb.y(), bx, by, kBlock, Mv{0, 0}, 8,
                                 SearchKind::Diamond, 0);
                // Reject badly aligned blocks: blending them would
                // smear motion instead of removing noise.
                const uint32_t per_pixel = mr.sad / (kBlock * kBlock);
                if (per_pixel > 12)
                    continue;
                motionCompensate(nb.y(), bx, by, kBlock, mr.mv, aligned);
                for (int i = 0; i < kBlock * kBlock; ++i)
                    acc[i] += aligned[i];
                ++weight;
            }

            for (int r = 0; r < kBlock; ++r) {
                for (int c = 0; c < kBlock; ++c) {
                    if (bx + c >= width || by + r >= height)
                        continue;
                    out.y().at(bx + c, by + r) = static_cast<uint8_t>(
                        (acc[r * kBlock + c] + weight / 2) / weight);
                }
            }
        }
    }
    return out;
}

} // namespace

Frame
temporalFilter(const std::vector<Frame> &frames, int center, int strength,
               int iterations)
{
    WSVA_ASSERT(center >= 0 && center < static_cast<int>(frames.size()),
                "temporal filter center %d out of range", center);
    if (strength <= 0 || frames.size() < 2)
        return frames[static_cast<size_t>(center)];
    // The alt-ref filter's own blending; its motion searches nest
    // under it as codec/motion_search.
    static const int kPhase = prof::phaseId("codec/temporal_filter");
    prof::ProfScope prof_scope(kPhase);

    Frame result = frames[static_cast<size_t>(center)];
    for (int it = 0; it < iterations; ++it) {
        // Widen support each iteration: pull neighbors further away.
        const int dist = it + 1;
        const int pi = center - dist;
        const int ni = center + dist;
        const bool has_prev = pi >= 0;
        const bool has_next = ni < static_cast<int>(frames.size());
        if (!has_prev && !has_next)
            break;
        const Frame &prev =
            has_prev ? frames[static_cast<size_t>(pi)] : result;
        const Frame &next =
            has_next ? frames[static_cast<size_t>(ni)] : result;
        Frame centered = result;
        result = filterOnce(prev, centered, next, has_prev, has_next,
                            strength);
    }
    return result;
}

} // namespace wsva::video::codec
