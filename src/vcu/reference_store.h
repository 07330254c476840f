/**
 * @file
 * SRAM reference-store model.
 *
 * The encoder core keeps the motion-search window in an SRAM array
 * so that each reference pixel is loaded from DRAM at most once per
 * tile column and at most twice per frame (Section 3.2, footnote 4:
 * 144K pixels = 768 x 192 for VP9 tile columns; footnote 5: a 394K
 * raster store for H.264 up to 2048-wide video). This module models
 * the store as an LRU cache of 64x16-pixel blocks and replays the
 * search-window access pattern of a frame to measure DRAM refetch
 * traffic.
 */

#ifndef WSVA_VCU_REFERENCE_STORE_H
#define WSVA_VCU_REFERENCE_STORE_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

namespace wsva::vcu {

/** Pixel dimensions of one cached reference block. */
constexpr int kRefBlockW = 64;
constexpr int kRefBlockH = 16;
constexpr int kRefBlockPixels = kRefBlockW * kRefBlockH;

/** Paper configurations. */
constexpr size_t kVp9StorePixels = 768 * 192;   //!< 144K pixels.
constexpr size_t kH264StorePixels = 2048 * 192; //!< 394K pixels.

/** LRU cache of reference blocks, sized in pixels. */
class ReferenceStore
{
  public:
    explicit ReferenceStore(size_t capacity_pixels);

    /**
     * Access the block containing reference pixel column/row block
     * coordinates (bx, by). @return true on hit, false on miss (the
     * block is then fetched and becomes most-recently used).
     */
    bool access(int bx, int by);

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    /** Drop all cached blocks (e.g. at a tile-column barrier). */
    void flush();

  private:
    size_t capacity_blocks_;
    std::list<uint64_t> lru_; //!< Front = most recent.
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/** Result of replaying a frame's worth of search-window accesses. */
struct SearchTrafficResult
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    /** DRAM reference-pixel fetches per frame pixel (1 = each pixel
     *  loaded exactly once; the paper bounds this at 2). */
    double fetch_ratio = 0.0;
};

/**
 * Replay the motion-search reference access pattern of one frame.
 *
 * Macroblocks are processed in tile-column order (all rows of a tile
 * column before moving right, as VP9 tiles are). For each MB the
 * core touches the search window around it.
 *
 * @param frame_w,frame_h Frame dimensions in pixels.
 * @param window_x Horizontal search reach each side, pixels.
 * @param window_y Vertical search reach each side, pixels.
 * @param store_pixels Reference-store capacity.
 * @param tile_col_width Tile column width in pixels (0 = raster scan
 *        across the full frame width, the H.264 configuration).
 */
SearchTrafficResult simulateSearchTraffic(int frame_w, int frame_h,
                                          int window_x, int window_y,
                                          size_t store_pixels,
                                          int tile_col_width);

} // namespace wsva::vcu

#endif // WSVA_VCU_REFERENCE_STORE_H
