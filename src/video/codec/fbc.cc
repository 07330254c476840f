#include "video/codec/fbc.h"

#include <algorithm>

#include "common/logging.h"
#include "video/codec/bitio.h"
#include "video/codec/golomb.h"

namespace wsva::video::codec {

namespace {

constexpr int kTileW = 64;
constexpr int kTileH = 16;

/**
 * Median-edge-detector predictor (as in JPEG-LS): predicts from the
 * left, top, and top-left reconstructed neighbors within the tile.
 * The first row/column of each tile predicts from within the tile
 * only, keeping tiles independently decodable like the VCU's
 * macroblock-granular compression.
 */
int
medPredict(const Plane &p, int x, int y, int tx0, int ty0)
{
    const bool has_left = x > tx0;
    const bool has_top = y > ty0;
    if (!has_left && !has_top)
        return 128;
    if (!has_left)
        return p.at(x, y - 1);
    if (!has_top)
        return p.at(x - 1, y);
    const int a = p.at(x - 1, y);
    const int b = p.at(x, y - 1);
    const int c = p.at(x - 1, y - 1);
    if (c >= std::max(a, b))
        return std::min(a, b);
    if (c <= std::min(a, b))
        return std::max(a, b);
    return a + b - c;
}

} // namespace

FbcPlane
fbcCompress(const Plane &plane)
{
    BitWriter bw;
    for (int ty = 0; ty < plane.height(); ty += kTileH) {
        for (int tx = 0; tx < plane.width(); tx += kTileW) {
            const int y1 = std::min(ty + kTileH, plane.height());
            const int x1 = std::min(tx + kTileW, plane.width());
            for (int y = ty; y < y1; ++y) {
                for (int x = tx; x < x1; ++x) {
                    const int pred = medPredict(plane, x, y, tx, ty);
                    putSe(bw, static_cast<int32_t>(plane.at(x, y)) - pred);
                }
            }
        }
    }
    return {plane.width(), plane.height(), bw.take()};
}

std::optional<Plane>
fbcDecompress(const FbcPlane &compressed)
{
    // Every pixel costs at least one bit (se(0) is a single 1), so a
    // size the payload cannot hold is corrupt; checking it first also
    // keeps a corrupt size from allocating a huge plane.
    if (compressed.width <= 0 || compressed.height <= 0 ||
        static_cast<uint64_t>(compressed.width) *
                static_cast<uint64_t>(compressed.height) >
            static_cast<uint64_t>(compressed.payload.size()) * 8) {
        return std::nullopt;
    }
    Plane plane(compressed.width, compressed.height);
    BitReader br(compressed.payload);
    for (int ty = 0; ty < plane.height(); ty += kTileH) {
        for (int tx = 0; tx < plane.width(); tx += kTileW) {
            const int y1 = std::min(ty + kTileH, plane.height());
            const int x1 = std::min(tx + kTileW, plane.width());
            for (int y = ty; y < y1; ++y) {
                for (int x = tx; x < x1; ++x) {
                    const int pred = medPredict(plane, x, y, tx, ty);
                    const int v = pred + getSe(br);
                    if (br.overrun())
                        return std::nullopt;
                    plane.at(x, y) =
                        static_cast<uint8_t>(std::clamp(v, 0, 255));
                }
            }
        }
    }
    return plane;
}

double
fbcRatio(const Plane &plane)
{
    const auto compressed = fbcCompress(plane);
    if (compressed.payload.empty())
        return 1.0;
    return static_cast<double>(plane.pixelCount()) /
           static_cast<double>(compressed.payload.size());
}

double
fbcHardwareRatio(const Frame &frame)
{
    // Per-block accounting against half-size compartments.
    uint64_t raw = 0;
    double stored = 0;
    for (int i = 0; i < 3; ++i) {
        const Plane &plane = frame.plane(i);
        const auto compressed = fbcCompress(plane);
        raw += plane.pixelCount();
        // The payload is one bitstream here; approximate per-block
        // compartment rounding by clamping the plane-level size into
        // [raw/2, raw]: savings cap at 2:1, and blocks that fail to
        // compress escape to raw storage (never expand).
        stored += std::clamp(
            static_cast<double>(compressed.payload.size()),
            static_cast<double>(plane.pixelCount()) / 2.0,
            static_cast<double>(plane.pixelCount()));
    }
    return stored > 0 ? static_cast<double>(raw) / stored : 1.0;
}

double
fbcFrameRatio(const Frame &frame)
{
    uint64_t raw = 0;
    uint64_t packed = 0;
    for (int i = 0; i < 3; ++i) {
        raw += frame.plane(i).pixelCount();
        packed += fbcCompress(frame.plane(i)).payload.size();
    }
    if (packed == 0)
        return 1.0;
    return static_cast<double>(raw) / static_cast<double>(packed);
}

} // namespace wsva::video::codec
