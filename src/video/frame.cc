#include "video/frame.h"

#include <algorithm>

#include "common/logging.h"

namespace wsva::video {

namespace {

/** Storage size of a plane, checked before anything is allocated. */
size_t
storageSize(int width, int height, int border)
{
    WSVA_ASSERT(width > 0 && height > 0, "plane dimensions must be positive");
    WSVA_ASSERT(border >= 0, "plane margin must not be negative");
    return static_cast<size_t>(width + 2 * border) *
           static_cast<size_t>(height + 2 * border);
}

} // namespace

Plane::Plane(int width, int height, uint8_t fill, int border)
    : width_(width), height_(height), border_(border),
      stride_(width + 2 * border),
      origin_(static_cast<size_t>(border) * static_cast<size_t>(stride_) +
              static_cast<size_t>(border)),
      data_(storageSize(width, height, border), fill)
{
}

uint8_t
Plane::clampedAt(int x, int y) const
{
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return at(x, y);
}

void
Plane::fill(uint8_t value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Plane::extendBorder()
{
    if (border_ == 0)
        return;
    for (int y = 0; y < height_; ++y) {
        uint8_t *r = row(y);
        std::fill(r - border_, r, r[0]);
        std::fill(r + width_, r + width_ + border_, r[width_ - 1]);
    }
    // Whole rows, margins included, so the corners come along.
    const uint8_t *top = row(0) - border_;
    const uint8_t *bottom = row(height_ - 1) - border_;
    for (int y = 1; y <= border_; ++y) {
        std::copy(top, top + stride_, row(-y) - border_);
        std::copy(bottom, bottom + stride_, row(height_ - 1 + y) - border_);
    }
}

bool
Plane::operator==(const Plane &other) const
{
    if (width_ != other.width_ || height_ != other.height_)
        return false;
    if (border_ == 0 && other.border_ == 0)
        return data_ == other.data_;
    for (int y = 0; y < height_; ++y) {
        if (!std::equal(row(y), row(y) + width_, other.row(y)))
            return false;
    }
    return true;
}

Frame::Frame(int width, int height, uint8_t luma_fill, int luma_border)
    : y_(width, height, luma_fill, luma_border),
      u_(width / 2, height / 2, 128, luma_border / 2),
      v_(width / 2, height / 2, 128, luma_border / 2)
{
    WSVA_ASSERT(width % 2 == 0 && height % 2 == 0,
                "4:2:0 frames need even dimensions, got %dx%d", width,
                height);
}

Plane &
Frame::plane(int i)
{
    switch (i) {
      case 0: return y_;
      case 1: return u_;
      case 2: return v_;
      default: panic("bad plane index %d", i);
    }
}

const Plane &
Frame::plane(int i) const
{
    return const_cast<Frame *>(this)->plane(i);
}

void
Frame::extendBorder()
{
    y_.extendBorder();
    u_.extendBorder();
    v_.extendBorder();
}

bool
Frame::valid() const
{
    return y_.width() > 0 && y_.height() > 0 &&
           u_.width() == y_.width() / 2 && u_.height() == y_.height() / 2 &&
           v_.width() == u_.width() && v_.height() == u_.height();
}

} // namespace wsva::video
