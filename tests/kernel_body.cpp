// Linked into the test binaries that run one kernel body
// (dynkge_add_test(... BODY ...) in tests/CMakeLists.txt). A CPU without
// that body's instructions skips every test instead of dying on the first
// kernel call.
#include <gtest/gtest.h>

namespace {

class KernelBodySupported : public testing::Environment {
 public:
  void SetUp() override {
#if defined(DYNKGE_KERNEL_BODY_AVX2)
    if (!__builtin_cpu_supports("avx2")) {
      GTEST_SKIP() << "this CPU has no AVX2: the avx2 kernel body cannot run";
    }
#endif
  }
};

testing::Environment* const kKernelBodySupported =
    testing::AddGlobalTestEnvironment(new KernelBodySupported);

}  // namespace
