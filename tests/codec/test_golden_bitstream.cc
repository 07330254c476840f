/**
 * @file
 * Golden-bitstream oracle: pins the exact encoder output and decoder
 * reconstruction for small vbench-style clips across both coding
 * profiles, both implementation profiles and two rate-control modes.
 *
 * The digests are FNV-1a over the stream bytes and over every plane
 * of every decoded frame. They were captured from the codec before
 * its transform was factored into butterflies; a kernel rewrite that
 * claims to be exact must leave every one of them unchanged. A change
 * that is meant to alter the bits updates them, and says so. Every
 * case runs on both kernel targets: `Pinned` on the AVX2 kernels
 * (skipped on a CPU without AVX2) and `PinnedScalar` on the scalar
 * ones.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "support/kernel_targets.h"
#include "video/codec/decoder.h"
#include "video/codec/encoder.h"
#include "workload/vbench.h"

namespace wsva::video::codec {
namespace {

using testsupport::KernelTarget;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t
fnv1a(uint64_t hash, const std::vector<uint8_t> &bytes)
{
    for (uint8_t b : bytes) {
        hash ^= b;
        hash *= kFnvPrime;
    }
    return hash;
}

struct GoldenCase
{
    const char *clip;
    CodecType codec;
    bool hardware;
    RcMode rc;
    uint64_t bytes_digest;
    uint64_t frames_digest;
    KernelTarget target = KernelTarget::Avx2;
};

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.clip << "/" << codecName(c.codec)
        << (c.hardware ? "/hw" : "/sw")
        << (c.rc == RcMode::ConstQp ? "/cqp" : "/2pass");
    if (c.target == KernelTarget::Scalar)
        *os << "/scalar";
}

std::string
caseName(const testing::TestParamInfo<GoldenCase> &info)
{
    const GoldenCase &c = info.param;
    return std::string(c.clip) + "_" + codecName(c.codec) +
           (c.hardware ? "_hw" : "_sw") +
           (c.rc == RcMode::ConstQp ? "_cqp" : "_2pass");
}

class GoldenBitstream : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenBitstream, BytesAndReconstructionMatchPinnedDigests)
{
    const GoldenCase &c = GetParam();
    const testsupport::ScopedKernelTarget target(c.target);
    if (!target.supported())
        GTEST_SKIP() << "this CPU has no AVX2";
    // 64x36 (the corpus minimum), ten frames: two closed GOPs, so key,
    // inter and (VP9) alt-ref frames are all covered.
    static const auto corpus = workload::vbenchCorpus(64, 10);
    const auto &spec = workload::vbenchClip(corpus, c.clip).spec;
    const auto frames = generateVideo(spec);

    EncoderConfig cfg;
    cfg.codec = c.codec;
    cfg.hardware = c.hardware;
    cfg.width = spec.width;
    cfg.height = spec.height;
    cfg.fps = spec.fps;
    cfg.rc_mode = c.rc;
    cfg.base_qp = 32;
    cfg.target_bitrate_bps = 60e3;
    cfg.gop_length = 8;

    const auto chunk = encodeSequence(cfg, frames);
    const auto decoded = decodeChunkOrDie(chunk.bytes);
    ASSERT_EQ(decoded.frames.size(), frames.size());

    const uint64_t bytes_digest = fnv1a(kFnvOffset, chunk.bytes);
    uint64_t frames_digest = kFnvOffset;
    for (const auto &frame : decoded.frames) {
        for (int p = 0; p < 3; ++p)
            frames_digest = fnv1a(frames_digest, frame.plane(p).data());
    }

    char actual[64];
    std::snprintf(actual, sizeof(actual), "0x%016llxULL, 0x%016llxULL",
                  static_cast<unsigned long long>(bytes_digest),
                  static_cast<unsigned long long>(frames_digest));
    EXPECT_EQ(bytes_digest, c.bytes_digest) << "actual: " << actual;
    EXPECT_EQ(frames_digest, c.frames_digest) << "actual: " << actual;
}

constexpr auto kH264 = CodecType::H264;
constexpr auto kVp9 = CodecType::VP9;
constexpr auto kCqp = RcMode::ConstQp;
constexpr auto k2Pass = RcMode::TwoPassOffline;

// presentation: static screen content. bike: natural content with a
// pan. holi: the corpus's hardest class (dense motion, noise, flashes).
const GoldenCase kPinned[] = {
    GoldenCase{"presentation", kH264, false, kCqp,
               0xd6af0485bf288d3fULL, 0x14cc47bd71f5d8a7ULL},
    GoldenCase{"presentation", kH264, false, k2Pass,
               0x6d16f76d213f7de1ULL, 0xe900e34447a76807ULL},
    GoldenCase{"presentation", kH264, true, kCqp,
               0x26f2f235399b5e67ULL, 0x291d5687642b5d2fULL},
    GoldenCase{"presentation", kH264, true, k2Pass,
               0x6d16f76d213f7de1ULL, 0xe900e34447a76807ULL},
    GoldenCase{"presentation", kVp9, false, kCqp,
               0x27d002b647f70119ULL, 0x14cc47bd71f5d8a7ULL},
    GoldenCase{"presentation", kVp9, false, k2Pass,
               0x2621c68dc9eb2909ULL, 0xe900e34447a76807ULL},
    GoldenCase{"presentation", kVp9, true, kCqp,
               0x419837bf4158368fULL, 0x291d5687642b5d2fULL},
    GoldenCase{"presentation", kVp9, true, k2Pass,
               0x2621c68dc9eb2909ULL, 0xe900e34447a76807ULL},
    GoldenCase{"bike", kH264, false, kCqp,
               0xd215fbc1179c44eaULL, 0xcabd40edcc8da1f1ULL},
    GoldenCase{"bike", kH264, false, k2Pass,
               0x4767c3c2edac0c83ULL, 0x32cee5aee1a09e08ULL},
    GoldenCase{"bike", kH264, true, kCqp,
               0x7fd1b33024cef958ULL, 0x5893dd3296c36fd1ULL},
    GoldenCase{"bike", kH264, true, k2Pass,
               0x10e60e591b82e2e1ULL, 0x135e0d35ef84ba80ULL},
    GoldenCase{"bike", kVp9, false, kCqp,
               0xd18c169dc7d05e05ULL, 0xcc1edacf1f960be1ULL},
    GoldenCase{"bike", kVp9, false, k2Pass,
               0x26c33912b4b6d6b7ULL, 0x367bf35872c900e5ULL},
    GoldenCase{"bike", kVp9, true, kCqp,
               0xee78d5d5be7d8c54ULL, 0x4c795fdbd3404e0aULL},
    GoldenCase{"bike", kVp9, true, k2Pass,
               0x2d57c93c452ecebfULL, 0x5b091427b85faec4ULL},
    GoldenCase{"holi", kH264, false, kCqp,
               0xecc4108290d4ff88ULL, 0x7bee3c4943c45536ULL},
    GoldenCase{"holi", kH264, false, k2Pass,
               0x322029aa555d3eb3ULL, 0x6e7d1d6e76b95cafULL},
    GoldenCase{"holi", kH264, true, kCqp,
               0x186afcef5fcf9e67ULL, 0xe5ed5d21051c433bULL},
    GoldenCase{"holi", kH264, true, k2Pass,
               0xc1f1fdf815a30656ULL, 0xfaac428c5449d30eULL},
    GoldenCase{"holi", kVp9, false, kCqp,
               0x8111b5f766f9701dULL, 0x707461a115cd6608ULL},
    GoldenCase{"holi", kVp9, false, k2Pass,
               0xbc5b9029bd6a8b29ULL, 0x425f12eb3d04a9bdULL},
    GoldenCase{"holi", kVp9, true, kCqp,
               0xd6865a726363749fULL, 0x962a65ee96c58d0aULL},
    GoldenCase{"holi", kVp9, true, k2Pass,
               0x019065dfdd5992c8ULL, 0x0137544fd054a55aULL},
};

/** The pinned cases on the scalar kernels: the digests do not depend
 *  on the kernel target. */
std::vector<GoldenCase>
scalarCases()
{
    std::vector<GoldenCase> cases(std::begin(kPinned), std::end(kPinned));
    for (auto &c : cases)
        c.target = KernelTarget::Scalar;
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Pinned, GoldenBitstream, testing::ValuesIn(kPinned),
                         caseName);
INSTANTIATE_TEST_SUITE_P(PinnedScalar, GoldenBitstream,
                         testing::ValuesIn(scalarCases()), caseName);

} // namespace
} // namespace wsva::video::codec
