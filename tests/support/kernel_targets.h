/**
 * @file
 * Runs codec tests on both kernel targets: the AVX2 kernels the codec
 * dispatches to on a CPU with AVX2, and the scalar reference kernels,
 * forced through forceScalarKernels(). On a CPU without AVX2 the AVX2
 * leg skips.
 */

#ifndef WSVA_TESTS_SUPPORT_KERNEL_TARGETS_H
#define WSVA_TESTS_SUPPORT_KERNEL_TARGETS_H

#include <gtest/gtest.h>

#include <cstdint>

#include "video/codec/kernel_dispatch.h"

namespace wsva::testsupport {

/** The kernels one leg of a test runs on. One byte, so that adding it
 *  to a test parameter keeps the parameter's size. */
enum class KernelTarget : uint8_t { Avx2, Scalar };

/** Puts the codec's kernels on a target for the object's lifetime. */
class ScopedKernelTarget
{
  public:
    explicit ScopedKernelTarget(KernelTarget target)
        : supported_(target == KernelTarget::Scalar ||
                     video::codec::cpuHasAvx2())
    {
        video::codec::forceScalarKernels(target == KernelTarget::Scalar);
    }
    ~ScopedKernelTarget() { video::codec::forceScalarKernels(false); }
    ScopedKernelTarget(const ScopedKernelTarget &) = delete;
    ScopedKernelTarget &operator=(const ScopedKernelTarget &) = delete;

    /** False for the AVX2 leg on a CPU without AVX2. */
    bool supported() const { return supported_; }

  private:
    bool supported_;
};

/** Runs @p body on @p target, or skips the test when this CPU cannot
 *  run it. */
template <typename Body>
void
runOnKernelTarget(KernelTarget target, Body body)
{
    const ScopedKernelTarget scoped(target);
    if (!scoped.supported())
        GTEST_SKIP() << "this CPU has no AVX2";
    body();
}

} // namespace wsva::testsupport

/**
 * Defines two tests from the body that follows: Suite.Name on the AVX2
 * kernels and SuiteScalar.Name on the scalar ones.
 */
#define KERNEL_TARGETS_TEST(suite, name)                                   \
    void suite##_##name##_body();                                          \
    TEST(suite, name)                                                      \
    {                                                                      \
        ::wsva::testsupport::runOnKernelTarget(                            \
            ::wsva::testsupport::KernelTarget::Avx2, suite##_##name##_body); \
    }                                                                      \
    TEST(suite##Scalar, name)                                              \
    {                                                                      \
        ::wsva::testsupport::runOnKernelTarget(                            \
            ::wsva::testsupport::KernelTarget::Scalar,                     \
            suite##_##name##_body);                                        \
    }                                                                      \
    void suite##_##name##_body()

#endif // WSVA_TESTS_SUPPORT_KERNEL_TARGETS_H
