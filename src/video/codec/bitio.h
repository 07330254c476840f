/**
 * @file
 * Bit-level I/O over byte buffers, MSB-first. Foundation for the
 * Exp-Golomb coder (H.264-like profile) and stream container headers.
 */

#ifndef WSVA_VIDEO_CODEC_BITIO_H
#define WSVA_VIDEO_CODEC_BITIO_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsva::video::codec {

/** MSB-first bit writer appending to an internal byte buffer. */
class BitWriter
{
  public:
    /** Append a single bit. */
    void putBit(int bit);

    /** Append the low @p count bits of @p value, MSB first. */
    void putBits(uint32_t value, int count);

    /** Pad with zero bits to the next byte boundary. */
    void byteAlign();

    /** Number of bits written so far. */
    uint64_t bitCount() const { return bit_count_; }

    /** Finish (byte-aligns) and return the buffer. */
    std::vector<uint8_t> take();

    /** Read-only view of the bytes completed so far. */
    const std::vector<uint8_t> &bytes() const { return buf_; }

  private:
    std::vector<uint8_t> buf_;
    uint32_t accum_ = 0;
    int accum_bits_ = 0;
    uint64_t bit_count_ = 0;
};

/** MSB-first bit reader over an external byte buffer. */
class BitReader
{
  public:
    BitReader(const uint8_t *data, size_t size)
        : data_(data), size_(size) {}

    explicit BitReader(const std::vector<uint8_t> &data)
        : BitReader(data.data(), data.size()) {}

    /** Read one bit; reads past the end return 0 and set overrun. */
    int getBit();

    /** Read @p count bits MSB-first. */
    uint32_t getBits(int count);

    /** Skip to the next byte boundary. */
    void byteAlign();

    /** True once a read went past the end of the buffer. */
    bool overrun() const { return overrun_; }

  private:
    const uint8_t *data_;
    size_t size_;
    uint64_t bit_pos_ = 0;
    bool overrun_ = false;
};

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_BITIO_H
