// Kernel micro-bench: GFLOP/s of the nn kernels (matmul, add_matmul_tn,
// wt_axpy) per flavor at probe-sized shapes, plus the bit-identity smoke
// check (avx2 must reproduce scalar results exactly).
//
// A shape n x inner x m is one layer with `inner` outputs and `m` inputs
// over n rows (batch rows, or (sample, t) rows for a conv): matmul is its
// input gradient dZ W, add_matmul_tn its weight gradient dZ^T X, and
// wt_axpy its forward, n sweeps of W^T (m x inner) over one input row.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "nn/mat.h"
#include "nn/mat_kernels.h"
#include "util/rng.h"

namespace {

nada::nn::Mat random_mat(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  nada::util::Rng rng(seed);
  nada::nn::Mat m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

bool same_bits(const nada::nn::Mat& a, const nada::nn::Mat& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace nada;
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("NN kernel flavors — GFLOP/s per kernel and shape", scale);

  std::vector<nn::KernelFlavor> flavors = {nn::KernelFlavor::kScalar};
  if (nn::built_with_avx2_kernels() && nn::cpu_supports_avx2()) {
    flavors.push_back(nn::KernelFlavor::kAvx2);
  }
  std::cout << "flavors runnable here:";
  for (const nn::KernelFlavor f : flavors) {
    std::cout << " " << nn::kernel_flavor_name(f);
  }
  std::cout << "\n";

  struct Shape {
    std::size_t n, inner, m;
  };
  // Probe-sized shapes: episode-length batches against the pensieve-scale
  // layer widths, one deliberately odd shape to time the tail paths, then
  // the funnel's own: abr-state-stream's merge layer (48 x 64 x 512), the
  // conv dW over (sample, t) rows (240 x 32 x 4) and an LSTM's per-sample
  // gate weights at hidden 32 (8 steps x 128 x 33).
  const std::vector<Shape> shapes = {{48, 33, 32},  {48, 96, 32},
                                     {48, 32, 8},   {200, 128, 64},
                                     {37, 33, 17},  {48, 64, 512},
                                     {240, 32, 4},  {8, 128, 33}};

  const nn::KernelFlavor entry_flavor = nn::kernel_flavor();
  util::TextTable table("Batched kernel throughput (GFLOP/s)");
  table.set_header({"kernel shape (n x inner x m)", "flavor", "matmul",
                    "add_matmul_tn", "wt_axpy", "vs scalar"});

  bool contract_ok = true;
  for (const Shape& s : shapes) {
    const nn::Mat a = random_mat(s.n, s.inner, 11 * s.n + s.m);
    const nn::Mat b = random_mat(s.inner, s.m, 13 * s.n + s.inner);
    const nn::Mat g = random_mat(s.n, s.m, 19 * s.n + 23 * s.m);
    const nn::Mat wt = random_mat(s.m, s.inner, 31 * s.m + s.inner);
    const double flops = 2.0 * static_cast<double>(s.n) *
                         static_cast<double>(s.inner) *
                         static_cast<double>(s.m);
    // Enough repetitions that each timed section runs ~tens of ms.
    const std::size_t reps = std::max<std::size_t>(
        1, static_cast<std::size_t>(2e8 / std::max(flops, 1.0)));

    nn::Mat matmul_ref(1, 1), tn_ref(1, 1), axpy_ref(1, 1);
    for (const nn::KernelFlavor f : flavors) {
      nn::set_kernel_flavor(f);

      bench::Stopwatch mm_timer;
      nn::Mat c_mm(1, 1);
      for (std::size_t r = 0; r < reps; ++r) c_mm = nn::matmul(a, b);
      const double mm_gflops = flops * reps / mm_timer.seconds() / 1e9;

      bench::Stopwatch tn_timer;
      nn::Mat c_tn = random_mat(s.inner, s.m, 29);
      for (std::size_t r = 0; r < reps; ++r) nn::add_matmul_tn(c_tn, a, g);
      const double tn_gflops = flops * reps / tn_timer.seconds() / 1e9;

      const nn::KernelTable& kernels = nn::active_kernels();
      bench::Stopwatch axpy_timer;
      nn::Mat z(s.n, s.inner);
      for (std::size_t r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < s.n; ++i) {
          kernels.wt_axpy(wt.ptr(), g.ptr() + i * s.m, z.ptr() + i * s.inner,
                          s.m, s.inner);
        }
      }
      const double axpy_gflops = flops * reps / axpy_timer.seconds() / 1e9;

      std::string comparison = "(reference)";
      if (f == nn::KernelFlavor::kScalar) {
        matmul_ref = c_mm;
        tn_ref = c_tn;
        axpy_ref = z;
      } else {
        const bool identical = same_bits(c_mm, matmul_ref) &&
                               same_bits(c_tn, tn_ref) &&
                               same_bits(z, axpy_ref);
        comparison = identical ? "bit-identical" : "DIVERGED";
        if (!identical) {
          contract_ok = false;
          std::cout << "ERROR: avx2 diverged from scalar at " << s.n << "x"
                    << s.inner << "x" << s.m << "\n";
        }
      }

      table.add_row({std::to_string(s.n) + "x" + std::to_string(s.inner) +
                         "x" + std::to_string(s.m),
                     nn::kernel_flavor_name(f),
                     util::format_double(mm_gflops, 2),
                     util::format_double(tn_gflops, 2),
                     util::format_double(axpy_gflops, 2), comparison});
    }
  }
  nn::set_kernel_flavor(entry_flavor);

  std::cout << table.to_string() << "\n";
  bench::save_csv("mat_kernels.csv", table);
  if (!contract_ok) {
    std::cout << "FAILED: avx2/scalar bit-identity violated\n";
    return 1;
  }
  return 0;
}
