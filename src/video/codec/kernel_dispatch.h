/**
 * @file
 * Runtime selection of the codec's SIMD kernels. Internal to the
 * codec: the public kernels in transform.h and mc.h dispatch on their
 * own, and code outside the codec includes this header only to force
 * the scalar kernels in a test or a benchmark.
 *
 * The transform, quantizer and SAD kernels each keep their scalar
 * code, which is the reference and the fallback, and gain an AVX2
 * version compiled beside it with WSVA_TARGET_AVX2. The AVX2 versions
 * run when the CPU reports AVX2, checked once per process with
 * __builtin_cpu_supports. There is no global -march flag, no
 * configuration field and no environment variable. Both versions give
 * byte-identical results; DESIGN.md §4 has the bounds that keep the
 * int32 lanes exact. The codec's SSE2 loops (reconstruction, the
 * half-pel filter, the coefficient scan) need no dispatch: SSE2 is the
 * x86-64 baseline, so they have one code path.
 */

#ifndef WSVA_VIDEO_CODEC_KERNEL_DISPATCH_H
#define WSVA_VIDEO_CODEC_KERNEL_DISPATCH_H

#include <atomic>

/** Compiles one function for AVX2. GCC does not carry the attribute
 *  into lambdas, so AVX2 code lives in functions that carry it. */
#define WSVA_TARGET_AVX2 __attribute__((target("avx2")))

namespace wsva::video::codec {

/** True when this CPU can run the AVX2 kernels. */
bool cpuHasAvx2();

/**
 * Test and benchmark hook: run every AVX2 kernel on its scalar code
 * (true), or go back to dispatching on the CPU (false). The SSE2 loops
 * are unaffected. The codec itself never calls it.
 */
void forceScalarKernels(bool force);

namespace detail {
extern std::atomic<bool> avx2_kernels;
} // namespace detail

/** True when the kernels take their AVX2 versions. */
inline bool
avx2Kernels()
{
    return detail::avx2_kernels.load(std::memory_order_relaxed);
}

} // namespace wsva::video::codec

#endif // WSVA_VIDEO_CODEC_KERNEL_DISPATCH_H
