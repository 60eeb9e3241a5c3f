// Tests for the runtime-dispatched SIMD kernel flavors (nn/mat_kernels.h):
// strict NADA_NN_KERNEL resolution, the avx2 bit-identity contract, the
// adam kernel against the scalar loop in tests/nn_adam_oracle.h, aligned
// Mat storage, and the per-thread volume counters behind nn.matmul.*.
#include "nn/mat_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/mat.h"
#include "nn/optimizer.h"
#include "nn_adam_oracle.h"
#include "util/rng.h"

namespace nada::nn {
namespace {

Mat random_mat(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Mat m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.5, 1.5);
  return m;
}

bool same_bits(const Mat& a, const Mat& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

// Restores the pre-test flavor so flavor-switching tests cannot leak into
// the rest of the binary's tests.
class FlavorGuard {
 public:
  FlavorGuard() : saved_(kernel_flavor()) {}
  ~FlavorGuard() { set_kernel_flavor(saved_); }

 private:
  KernelFlavor saved_;
};

bool avx2_runnable() {
  return built_with_avx2_kernels() && cpu_supports_avx2();
}

// ---- resolve_kernel_flavor: the strict-validation contract ----------------

TEST(KernelResolve, UnsetPicksBestBitIdenticalFlavor) {
  // Default is avx2 exactly when both the build and the CPU have it...
  EXPECT_EQ(resolve_kernel_flavor(nullptr, true, true), KernelFlavor::kAvx2);
  EXPECT_EQ(resolve_kernel_flavor("", true, true), KernelFlavor::kAvx2);
  // ...and missing build or CPU support each fall back to scalar.
  EXPECT_EQ(resolve_kernel_flavor(nullptr, false, true),
            KernelFlavor::kScalar);
  EXPECT_EQ(resolve_kernel_flavor(nullptr, true, false),
            KernelFlavor::kScalar);
}

TEST(KernelResolve, ExplicitRequestsResolve) {
  EXPECT_EQ(resolve_kernel_flavor("scalar", true, true),
            KernelFlavor::kScalar);
  // scalar works even with nothing else available.
  EXPECT_EQ(resolve_kernel_flavor("scalar", false, false),
            KernelFlavor::kScalar);
  EXPECT_EQ(resolve_kernel_flavor("avx2", true, true), KernelFlavor::kAvx2);
}

TEST(KernelResolve, UnknownValueThrowsDescriptively) {
  // The retired fma flavor is an unknown value like any other.
  for (const char* value : {"sse9", "fma"}) {
    try {
      (void)resolve_kernel_flavor(value, true, true);
      FAIL() << "expected throw for " << value;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("NADA_NN_KERNEL must be one of scalar|avx2, "
                            "got \"") +
                    value + "\"");
    }
  }
  // Near-misses are not corrected silently.
  EXPECT_THROW((void)resolve_kernel_flavor("AVX2", true, true),
               std::runtime_error);
  EXPECT_THROW((void)resolve_kernel_flavor(" avx2", true, true),
               std::runtime_error);
}

TEST(KernelResolve, UnsatisfiableRequestsFailLoudly) {
  // avx2 requested but not built / not supported by the CPU.
  EXPECT_THROW((void)resolve_kernel_flavor("avx2", false, true),
               std::runtime_error);
  EXPECT_THROW((void)resolve_kernel_flavor("avx2", true, false),
               std::runtime_error);
  try {
    (void)resolve_kernel_flavor("avx2", true, false);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CPU"), std::string::npos)
        << e.what();
  }
}

TEST(KernelDispatch, SetKernelFlavorRejectsUnrunnableFlavors) {
  if (avx2_runnable()) {
    GTEST_SKIP() << "this machine can run every compiled flavor";
  }
  EXPECT_THROW(set_kernel_flavor(KernelFlavor::kAvx2), std::exception);
}

TEST(KernelDispatch, RetiredFmaFlavorIsRejected) {
  FlavorGuard guard;
  EXPECT_THROW(set_kernel_flavor(KernelFlavor::kFma), std::exception);
  EXPECT_NE(kernel_flavor(), KernelFlavor::kFma);
}

TEST(KernelDispatch, FlavorNamesAreStable) {
  EXPECT_STREQ(kernel_flavor_name(KernelFlavor::kScalar), "scalar");
  EXPECT_STREQ(kernel_flavor_name(KernelFlavor::kAvx2), "avx2");
}

TEST(KernelDispatch, BuildImpliesCoherentDefault) {
  // Whatever the environment chose, the active flavor must be runnable.
  const KernelFlavor flavor = kernel_flavor();
  if (flavor == KernelFlavor::kAvx2) EXPECT_TRUE(avx2_runnable());
}

// ---- storage alignment -----------------------------------------------------

TEST(KernelStorage, MatBasePointerIs32ByteAligned) {
  for (std::size_t rows : {1u, 3u, 7u, 32u}) {
    for (std::size_t cols : {1u, 5u, 13u, 64u}) {
      Mat m(rows, cols);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.ptr()) % Mat::kAlignment,
                0u)
          << rows << "x" << cols;
    }
  }
}

// ---- avx2: bit-identical to scalar -----------------------------------------

// Runs f under `flavor` and under scalar, returns both results.
template <typename F>
std::pair<Mat, Mat> under_both(KernelFlavor flavor, F f) {
  FlavorGuard guard;
  set_kernel_flavor(flavor);
  Mat vec = f();
  set_kernel_flavor(KernelFlavor::kScalar);
  Mat ref = f();
  return {std::move(vec), std::move(ref)};
}

TEST(KernelBitIdentity, Avx2MatchesScalarBitwiseAcrossShapes) {
  if (!avx2_runnable()) GTEST_SKIP() << "avx2 kernels unavailable";
  std::uint64_t seed = 71;
  // Shapes chosen to hit every path: 4-row tiles, row tails, 8/4-column
  // vector blocks, column tails, and sub-vector widths.
  const std::size_t dims[] = {1, 2, 3, 4, 5, 7, 8, 11, 16, 21};
  for (std::size_t n : dims) {
    for (std::size_t k : {1u, 3u, 8u, 13u}) {
      for (std::size_t m : dims) {
        const Mat a = random_mat(n, k, seed++);
        const Mat b = random_mat(k, m, seed++);
        const Mat grad = random_mat(n, m, seed++);

        auto [c_mm, r_mm] =
            under_both(KernelFlavor::kAvx2, [&] { return matmul(a, b); });
        EXPECT_TRUE(same_bits(c_mm, r_mm))
            << "matmul " << n << "x" << k << " * " << k << "x" << m;

        auto [c_tn, r_tn] = under_both(KernelFlavor::kAvx2, [&] {
          Mat c = random_mat(k, m, seed);  // same seed both runs
          add_matmul_tn(c, a, grad);
          return c;
        });
        EXPECT_TRUE(same_bits(c_tn, r_tn))
            << "add_matmul_tn " << n << "x" << k << " ^T * " << n << "x" << m;
      }
    }
  }
}

TEST(KernelBitIdentity, Avx2WtAxpyMatchesScalarBitwise) {
  if (!avx2_runnable()) GTEST_SKIP() << "avx2 kernels unavailable";
  std::uint64_t seed = 1009;
  for (std::size_t k : {1u, 2u, 5u, 8u}) {
    for (std::size_t out :
         {1u, 3u, 4u, 7u, 8u, 12u, 16u, 19u, 24u, 28u, 32u, 45u}) {
      const Mat wt = random_mat(k, out, seed++);
      const Mat x = random_mat(1, k, seed++);
      std::vector<double> z_vec(out, 0.25);
      std::vector<double> z_ref(out, 0.25);
      {
        FlavorGuard guard;
        set_kernel_flavor(KernelFlavor::kAvx2);
        active_kernels().wt_axpy(wt.ptr(), x.ptr(), z_vec.data(), k, out);
        set_kernel_flavor(KernelFlavor::kScalar);
        active_kernels().wt_axpy(wt.ptr(), x.ptr(), z_ref.data(), k, out);
      }
      for (std::size_t j = 0; j < out; ++j) {
        EXPECT_EQ(z_vec[j], z_ref[j]) << "k=" << k << " out=" << out
                                      << " j=" << j;
      }
    }
  }
}

// ---- adam: the pre-kernel loop, over successive steps ----------------------

constexpr std::size_t kAdamSteps = 50;  // the bias correction moves each step

/// One parameter per length (0 is the kernel-level case below), stepped
/// kAdamSteps times with fresh gradients that span several magnitudes and
/// include exact zeros. Returns every parameter's weights after every
/// step, and fails the test if a step leaves a gradient nonzero.
template <typename Optimizer>
std::vector<std::vector<double>> adam_trajectory(Optimizer& optimizer) {
  const std::size_t lengths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 1025};
  std::vector<Mat> weights, grads;
  std::uint64_t seed = 4001;
  for (std::size_t n : lengths) {
    weights.push_back(random_mat(1, n, seed++));
    grads.emplace_back(1, n);
  }
  std::vector<ParamRef> params;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    params.push_back({&weights[i], &grads[i]});
  }
  util::Rng rng(97);
  std::vector<std::vector<double>> trajectory;
  for (std::size_t step = 0; step < kAdamSteps; ++step) {
    const double magnitude = std::pow(10.0, static_cast<double>(step % 5) - 2);
    for (Mat& g : grads) {
      for (double& v : g.data()) {
        v = rng.bernoulli(0.1) ? 0.0 : rng.uniform(-1.0, 1.0) * magnitude;
      }
    }
    optimizer.step(params);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      for (double g : grads[i].data()) EXPECT_EQ(g, 0.0) << "step " << step;
      trajectory.emplace_back(weights[i].data().begin(),
                              weights[i].data().end());
    }
  }
  return trajectory;
}

TEST(KernelAdam, ScalarAndAvx2MatchThePreKernelLoopBitwise) {
  test::AdamOracle oracle(0.01);
  const auto expected = adam_trajectory(oracle);
  std::vector<KernelFlavor> flavors = {KernelFlavor::kScalar};
  if (avx2_runnable()) flavors.push_back(KernelFlavor::kAvx2);
  for (const KernelFlavor flavor : flavors) {
    SCOPED_TRACE(kernel_flavor_name(flavor));
    FlavorGuard guard;
    set_kernel_flavor(flavor);
    Adam adam(0.01);
    const auto actual = adam_trajectory(adam);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "entry " << i;  // bitwise
    }
  }
}

TEST(KernelAdam, ZeroLengthTouchesNothing) {
  std::vector<KernelFlavor> flavors = {KernelFlavor::kScalar};
  if (avx2_runnable()) flavors.push_back(KernelFlavor::kAvx2);
  const AdamCoeffs coeffs{0.01, 0.9, 0.999, 1e-8, 0.1, 0.001};
  for (const KernelFlavor flavor : flavors) {
    FlavorGuard guard;
    set_kernel_flavor(flavor);
    double w = 1.5, g = 2.0, m = 3.0, v = 4.0;
    active_kernels().adam(&w, &g, &m, &v, 0, coeffs);
    EXPECT_EQ(w, 1.5) << kernel_flavor_name(flavor);
    EXPECT_EQ(g, 2.0) << kernel_flavor_name(flavor);
    EXPECT_EQ(m, 3.0) << kernel_flavor_name(flavor);
    EXPECT_EQ(v, 4.0) << kernel_flavor_name(flavor);
  }
}

// ---- volume counters -------------------------------------------------------

TEST(KernelCounting, MatmulWrappersTallyCallsAndFlops) {
  const KernelCounters before = thread_kernel_counters();
  const Mat a = random_mat(4, 6, 99);
  const Mat b = random_mat(6, 5, 100);
  const Mat c = matmul(a, b);  // 2 * 4 * 6 * 5 flops
  Mat acc = random_mat(6, 5, 102);
  add_matmul_tn(acc, a, c);  // 2 * 4 * 6 * 5 flops
  const KernelCounters after = thread_kernel_counters();
  EXPECT_EQ(after.matmul_calls - before.matmul_calls, 2u);
  EXPECT_EQ(after.matmul_flops - before.matmul_flops, 2u * 2 * 4 * 6 * 5);
}

}  // namespace
}  // namespace nada::nn
