// Kernel micro-bench: GFLOP/s of the batched nn kernels (matmul,
// add_matmul_tn) per flavor at probe-sized shapes, plus the bit-identity
// smoke check (avx2 must reproduce scalar results exactly;
// fma is pinned-divergent and only checked for closeness).
//
// The shapes mirror the probe hot path: n = episode length (batch rows),
// inner = layer input width, m = layer output width.
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
  if (nn::built_with_fma_kernels() && nn::cpu_supports_avx2() &&
      nn::cpu_supports_fma()) {
    flavors.push_back(nn::KernelFlavor::kFma);
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
  // layer widths, plus one deliberately odd shape to time the tail paths.
  const std::vector<Shape> shapes = {
      {48, 33, 32}, {48, 96, 32}, {48, 32, 8}, {200, 128, 64}, {37, 33, 17}};

  const nn::KernelFlavor entry_flavor = nn::kernel_flavor();
  util::TextTable table("Batched kernel throughput (GFLOP/s)");
  table.set_header({"kernel shape (n x inner x m)", "flavor", "matmul",
                    "add_matmul_tn", "vs scalar"});

  bool contract_ok = true;
  for (const Shape& s : shapes) {
    const nn::Mat a = random_mat(s.n, s.inner, 11 * s.n + s.m);
    const nn::Mat b = random_mat(s.inner, s.m, 13 * s.n + s.inner);
    const nn::Mat g = random_mat(s.n, s.m, 19 * s.n + 23 * s.m);
    const double flops = 2.0 * static_cast<double>(s.n) *
                         static_cast<double>(s.inner) *
                         static_cast<double>(s.m);
    // Enough repetitions that each timed section runs ~tens of ms.
    const std::size_t reps = std::max<std::size_t>(
        1, static_cast<std::size_t>(4e7 / std::max(flops, 1.0)));

    nn::Mat matmul_ref(1, 1), tn_ref(1, 1);
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

      std::string comparison = "(reference)";
      if (f == nn::KernelFlavor::kScalar) {
        matmul_ref = c_mm;
        tn_ref = c_tn;
      } else if (f == nn::KernelFlavor::kAvx2) {
        const bool identical =
            same_bits(c_mm, matmul_ref) && same_bits(c_tn, tn_ref);
        comparison = identical ? "bit-identical" : "DIVERGED";
        if (!identical) {
          contract_ok = false;
          std::cout << "ERROR: avx2 diverged from scalar at " << s.n << "x"
                    << s.inner << "x" << s.m << "\n";
        }
      } else {
        comparison = "divergent (pinned, kernel=fma)";
      }

      table.add_row({std::to_string(s.n) + "x" + std::to_string(s.inner) +
                         "x" + std::to_string(s.m),
                     nn::kernel_flavor_name(f),
                     util::format_double(mm_gflops, 2),
                     util::format_double(tn_gflops, 2), comparison});
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
