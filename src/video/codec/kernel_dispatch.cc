#include "video/codec/kernel_dispatch.h"

namespace wsva::video::codec {

bool
cpuHasAvx2()
{
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return has;
}

namespace detail {
// A kernel that runs before this initializer sees false and takes
// the scalar code, which gives the same result.
std::atomic<bool> avx2_kernels{cpuHasAvx2()};
} // namespace detail

void
forceScalarKernels(bool force)
{
    detail::avx2_kernels.store(!force && cpuHasAvx2(),
                               std::memory_order_relaxed);
}

} // namespace wsva::video::codec
