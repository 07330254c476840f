/**
 * @file
 * Lossless reference frame-buffer compression (FBC).
 *
 * The VCU compresses each reconstructed macroblock with a proprietary
 * lossless algorithm before writing it to DRAM, roughly halving the
 * reference-read bandwidth (Section 3.2). This module implements a
 * functional stand-in — per-block left/top predictive coding with
 * Exp-Golomb residuals — used both to verify losslessness and to
 * supply measured compression ratios to the VCU bandwidth model.
 */

#ifndef WSVA_VIDEO_CODEC_FBC_H
#define WSVA_VIDEO_CODEC_FBC_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "video/frame.h"

namespace wsva::video::codec {

/** Compressed representation of one plane. */
struct FbcPlane
{
    int width = 0;
    int height = 0;
    std::vector<uint8_t> payload;
};

/** Losslessly compress a plane (64x16 pixel tiles, as in the VCU). */
FbcPlane fbcCompress(const Plane &plane);

/**
 * Decompress back to the exact original plane. A corrupt input (a
 * non-positive size, a size the payload is too short to hold, or a
 * truncated payload) yields nullopt instead of a plane.
 */
std::optional<Plane> fbcDecompress(const FbcPlane &compressed);

/** Compression ratio (uncompressed bytes / compressed bytes). */
double fbcRatio(const Plane &plane);

/**
 * Average FBC ratio over a frame (all planes) — the entropy-coding
 * view of how compressible the reference content is.
 */
double fbcFrameRatio(const Frame &frame);

/**
 * The bandwidth ratio the *hardware* realizes: compressed blocks are
 * stored in fixed half-size compartments so any block stays randomly
 * addressable by the motion-search reader, capping the saving at 2:1
 * regardless of entropy (and explaining the paper's "approximately
 * 50%" figure). Blocks that do not compress to half size are stored
 * raw.
 */
double fbcHardwareRatio(const Frame &frame);

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_FBC_H
