#include "video/codec/mc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "video/codec/mb_common.h"

namespace wsva::video::codec {
namespace {

// Differential test for the codec's block reads: every fetch, MC and
// SAD kernel must return what a per-pixel clampedAt read returns, on
// plain planes and on border-extended ones, wherever the block sits.

constexpr int kWidth = 40;
constexpr int kHeight = 24;
constexpr int kBlockSizes[] = {4, 8, 16};
/** Plain planes, chroma references and luma references. */
constexpr int kMargins[] = {0, kRefBorder / 2, kRefBorder};

/** The reference read: one clampedAt per sample. */
void
clampedFetch(const Plane &p, int x, int y, int w, int h, uint8_t *out)
{
    for (int r = 0; r < h; ++r)
        for (int c = 0; c < w; ++c)
            out[r * w + c] = p.clampedAt(x + c, y + r);
}

/** motionCompensate as a clamped (n+1) x (n+1) fetch plus filter. */
void
referenceMc(const Plane &ref, int x, int y, int n, Mv mv, uint8_t *out)
{
    const int ix = x + (mv.x >> 1);
    const int iy = y + (mv.y >> 1);
    const bool half_x = mv.x & 1;
    const bool half_y = mv.y & 1;
    const int pn = n + 1;
    std::vector<uint8_t> patch(static_cast<size_t>(pn * pn));
    clampedFetch(ref, ix, iy, pn, pn, patch.data());
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            const int p00 = patch[static_cast<size_t>(r * pn + c)];
            const int p01 = patch[static_cast<size_t>(r * pn + c + 1)];
            const int p10 = patch[static_cast<size_t>((r + 1) * pn + c)];
            const int p11 =
                patch[static_cast<size_t>((r + 1) * pn + c + 1)];
            int v = p00;
            if (half_x && half_y)
                v = (p00 + p01 + p10 + p11 + 2) >> 2;
            else if (half_x)
                v = (p00 + p01 + 1) >> 1;
            else if (half_y)
                v = (p00 + p10 + 1) >> 1;
            out[r * n + c] = static_cast<uint8_t>(v);
        }
    }
}

Plane
randomPlane(int w, int h, uint64_t seed)
{
    wsva::Rng rng(seed);
    Plane p(w, h);
    for (auto &px : p.data())
        px = static_cast<uint8_t>(rng.uniformInt(256));
    return p;
}

/** @p plain's pixels in a plane with a margin of @p border, extended. */
Plane
withMargin(const Plane &plain, int border)
{
    Plane out(plain.width(), plain.height(), 0, border);
    for (int y = 0; y < plain.height(); ++y)
        for (int x = 0; x < plain.width(); ++x)
            out.at(x, y) = plain.at(x, y);
    out.extendBorder();
    return out;
}

/**
 * Window origins on one axis for a w-wide window over a plane of
 * length @p len with margin @p b: inside, straddling either edge,
 * exactly at either end of the margin and one pixel past it.
 */
std::vector<int>
axisPositions(int len, int w, int b)
{
    return {len / 2 - w / 2, -2, len - w + 2, -b, -b - 1, len + b - w,
            len + b - w + 1};
}

/** Every combination of two axes' positions. */
std::vector<std::array<int, 2>>
positions(int w, int h, int b)
{
    std::vector<std::array<int, 2>> out;
    for (int x : axisPositions(kWidth, w, b))
        for (int y : axisPositions(kHeight, h, b))
            out.push_back({x, y});
    return out;
}

/** Half-pel vectors at the int16 extremes a bitstream can carry. */
std::vector<Mv>
extremeVectors()
{
    std::vector<Mv> out;
    for (int16_t vx : {int16_t{32767}, int16_t{-32767}, int16_t{-32768},
                       int16_t{0}})
        for (int16_t vy : {int16_t{32767}, int16_t{-32767},
                           int16_t{-32768}, int16_t{0}})
            out.push_back({vx, vy});
    return out;
}

class BorderedReads : public testing::TestWithParam<int>
{
  protected:
    int margin() const { return GetParam(); }

    const Plane plain_ = randomPlane(kWidth, kHeight, 41);
    const Plane ref_ = withMargin(plain_, margin());
};

TEST_P(BorderedReads, ExtractBlockMatchesClampedFetch)
{
    for (int n : kBlockSizes) {
        for (const auto &pos : positions(n, n, margin())) {
            uint8_t got[16 * 16];
            uint8_t want[16 * 16];
            extractBlock(ref_, pos[0], pos[1], n, got);
            clampedFetch(plain_, pos[0], pos[1], n, n, want);
            ASSERT_TRUE(std::equal(want, want + n * n, got))
                << "n " << n << " at " << pos[0] << "," << pos[1];
        }
    }
}

TEST_P(BorderedReads, MotionCompensateMatchesClampedFetchInAllPhases)
{
    // The block sits at (8, 8); the vector moves its (n+1)-wide
    // half-pel window to each position, in each of the four phases.
    // The positions include windows whose last row and column are the
    // margin's (read in place: the filter's loads at p + 1 end there)
    // and windows one pixel further (edge-emulated).
    constexpr int kX = 8;
    constexpr int kY = 8;
    for (int n : kBlockSizes) {
        for (int phase = 0; phase < 4; ++phase) {
            std::vector<Mv> mvs;
            for (const Mv mv : extremeVectors()) {
                mvs.push_back({static_cast<int16_t>((mv.x & ~1) | phase % 2),
                               static_cast<int16_t>((mv.y & ~1) | phase / 2)});
            }
            for (const auto &pos : positions(n + 1, n + 1, margin())) {
                mvs.push_back(
                    {static_cast<int16_t>(2 * (pos[0] - kX) + phase % 2),
                     static_cast<int16_t>(2 * (pos[1] - kY) + phase / 2)});
            }
            int in_place_at_edge = 0;
            int emulated = 0;
            for (const Mv mv : mvs) {
                const int wx = kX + (mv.x >> 1);
                const int wy = kY + (mv.y >> 1);
                const int w = phase == 0 ? n : n + 1;
                const bool in_place = withinMargin(ref_, wx, wy, w, w);
                in_place_at_edge +=
                    in_place && wx + w == ref_.width() + margin();
                emulated += !in_place;
                uint8_t got[16 * 16];
                uint8_t want[16 * 16];
                motionCompensate(ref_, kX, kY, n, mv, got);
                referenceMc(plain_, kX, kY, n, mv, want);
                ASSERT_TRUE(std::equal(want, want + n * n, got))
                    << "n " << n << " mv " << mv.x << "," << mv.y;
            }
            EXPECT_GT(in_place_at_edge, 0)
                << "n " << n << " phase " << phase;
            EXPECT_GT(emulated, 0) << "n " << n << " phase " << phase;
        }
    }
}

TEST_P(BorderedReads, SadAgainstBlockMatchesClampedFetch)
{
    wsva::Rng rng(42);
    for (int n : kBlockSizes) {
        std::vector<std::array<int, 2>> where = positions(n, n, margin());
        for (const Mv mv : extremeVectors())
            where.push_back({8 + (mv.x >> 1), 8 + (mv.y >> 1)});
        for (const auto &pos : where) {
            uint8_t cur[16 * 16];
            for (int i = 0; i < n * n; ++i)
                cur[i] = static_cast<uint8_t>(rng.uniformInt(256));
            uint8_t block[16 * 16];
            clampedFetch(plain_, pos[0], pos[1], n, n, block);
            const uint32_t sad = blockSad(cur, block, n);
            // Unbounded, then bounds that exit early or just miss.
            EXPECT_EQ(sadAgainstBlock(cur, ref_, pos[0], pos[1], n,
                                      UINT32_MAX),
                      sad);
            for (uint32_t bound : {sad / 2, sad, sad + 1}) {
                const uint32_t got =
                    sadAgainstBlock(cur, ref_, pos[0], pos[1], n, bound);
                if (sad < bound)
                    EXPECT_EQ(got, sad);
                else
                    EXPECT_GE(got, bound);
            }
        }
    }
}

TEST_P(BorderedReads, SadAtMatchesClampedFetch)
{
    // Both operands move: the source block through the positions of a
    // plain plane, the displaced block through those of the margin.
    const Plane src = randomPlane(kWidth, kHeight, 43);
    for (int n : kBlockSizes) {
        const auto src_positions = positions(n, n, 0);
        const auto ref_positions = positions(n, n, margin());
        for (size_t i = 0; i < ref_positions.size(); ++i) {
            const auto &s = src_positions[i % src_positions.size()];
            const auto &r = ref_positions[i];
            uint8_t a[16 * 16];
            uint8_t b[16 * 16];
            clampedFetch(src, s[0], s[1], n, n, a);
            clampedFetch(plain_, r[0], r[1], n, n, b);
            EXPECT_EQ(sadAt(src, ref_, s[0], s[1], n, r[0] - s[0],
                            r[1] - s[1]),
                      blockSad(a, b, n))
                << "n " << n << " src " << s[0] << "," << s[1] << " ref "
                << r[0] << "," << r[1];
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Margins, BorderedReads,
                         testing::ValuesIn(kMargins));

} // namespace
} // namespace wsva::video::codec
