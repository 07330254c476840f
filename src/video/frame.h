/**
 * @file
 * Raw video frame representation: 8-bit planar YUV 4:2:0.
 *
 * Frames are the interchange type between the decoder, scaler,
 * temporal filter, encoder, and quality metrics. Dimensions must be
 * even (4:2:0 chroma subsampling halves both axes).
 */

#ifndef WSVA_VIDEO_FRAME_H
#define WSVA_VIDEO_FRAME_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace wsva::video {

/**
 * One 8-bit image plane with edge-clamped sampling helpers.
 *
 * A plane may carry a margin of border() pixels on every side. The
 * margin holds copies of the nearest edge pixel once extendBorder()
 * has run, so a reader may address any pixel within border() of the
 * plane in place and get what clampedAt() would return. Reference
 * planes carry one so that motion search and motion compensation read
 * blocks that overhang an edge as plain rows. width(), height(), at()
 * and operator== speak of the visible pixels only; plain planes
 * (border 0) are stored in raster order with no padding.
 */
class Plane
{
  public:
    Plane() = default;

    /**
     * Construct a plane of the given size, every pixel (the margin
     * too) set to @p fill.
     */
    Plane(int width, int height, uint8_t fill = 0, int border = 0);

    int width() const { return width_; }
    int height() const { return height_; }

    /** Margin width on each side; 0 for a plain plane. */
    int border() const { return border_; }

    /** Distance between vertically adjacent pixels, in bytes. */
    int stride() const { return stride_; }

    /** Mutable pixel access; (x, y) must be in bounds. */
    uint8_t &at(int x, int y) { return data_[idx(x, y)]; }

    /** Const pixel access; (x, y) must be in bounds. */
    uint8_t at(int x, int y) const { return data_[idx(x, y)]; }

    /** Pixel access with coordinates clamped to the plane edges. */
    uint8_t clampedAt(int x, int y) const;

    /**
     * Pointer to pixel (0, y). Rows and columns up to border() pixels
     * outside the plane are addressable from it.
     */
    uint8_t *row(int y) { return data_.data() + idx(0, y); }
    const uint8_t *row(int y) const { return data_.data() + idx(0, y); }

    /** Fill the whole plane, margin included, with one value. */
    void fill(uint8_t value);

    /**
     * Copy the edge pixels across the margin. Call it after the last
     * write to the visible pixels; until then the margin is stale.
     */
    void extendBorder();

    /** Number of pixels; plain planes only. */
    size_t pixelCount() const
    {
        requirePlain();
        return data_.size();
    }

    /** Underlying storage (raster order, no padding); plain planes
     *  only, since a bordered plane's storage holds its margin too. */
    const std::vector<uint8_t> &data() const
    {
        requirePlain();
        return data_;
    }
    std::vector<uint8_t> &data()
    {
        requirePlain();
        return data_;
    }

    /** Same size and visible pixels; margins are not compared. */
    bool operator==(const Plane &other) const;

  private:
    size_t idx(int x, int y) const
    {
        return static_cast<size_t>(static_cast<std::ptrdiff_t>(origin_) +
                                   static_cast<std::ptrdiff_t>(y) * stride_ +
                                   x);
    }

    void requirePlain() const
    {
        WSVA_ASSERT(border_ == 0,
                    "raster access to a plane with a %d-pixel margin",
                    border_);
    }

    int width_ = 0;
    int height_ = 0;
    int border_ = 0;
    int stride_ = 0;
    size_t origin_ = 0; //!< Storage index of pixel (0, 0).
    std::vector<uint8_t> data_;
};

/** A YUV 4:2:0 frame. */
class Frame
{
  public:
    Frame() = default;

    /**
     * Construct a frame of the given luma dimensions (must be even),
     * with luma filled with @p luma_fill and chroma neutral (128).
     * The luma plane gets a margin of @p luma_border pixels, the
     * chroma planes half of it.
     */
    Frame(int width, int height, uint8_t luma_fill = 0, int luma_border = 0);

    int width() const { return y_.width(); }
    int height() const { return y_.height(); }

    /** Luma pixel count (the unit for Mpix/s accounting). */
    uint64_t pixelCount() const
    {
        return static_cast<uint64_t>(width()) *
               static_cast<uint64_t>(height());
    }

    Plane &y() { return y_; }
    const Plane &y() const { return y_; }
    Plane &u() { return u_; }
    const Plane &u() const { return u_; }
    Plane &v() { return v_; }
    const Plane &v() const { return v_; }

    /** Plane access by index: 0 = Y, 1 = U, 2 = V. */
    Plane &plane(int i);
    const Plane &plane(int i) const;

    /** True if dimensions are set and consistent for 4:2:0. */
    bool valid() const;

    /** Plane::extendBorder on all three planes. */
    void extendBorder();

    bool operator==(const Frame &other) const = default;

  private:
    Plane y_;
    Plane u_;
    Plane v_;
};

/** Uncompressed in-memory size of a 4:2:0 frame in bytes (1.5 B/pixel). */
inline uint64_t
rawFrameBytes(int width, int height)
{
    return static_cast<uint64_t>(width) * static_cast<uint64_t>(height) *
           3ULL / 2ULL;
}

} // namespace wsva::video

#endif // WSVA_VIDEO_FRAME_H
