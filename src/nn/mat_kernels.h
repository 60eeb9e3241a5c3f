// Runtime-dispatched kernel flavors for the batched `nn` hot path.
//
// The register-tiled double kernels behind matmul/add_matmul_tn, the
// transposed-weight sweep and the Adam update exist in two flavors:
//
//   scalar  portable loops; the reference semantics on every platform
//   avx2    the same 4-sample tile with output columns in AVX2 lanes and
//           separate multiply and add per step — BIT-IDENTICAL to scalar
//           by contract (every output element accumulates its products in
//           exactly the serial order, and an unfused vector lane rounds
//           exactly like the scalar ALU)
//
// Because the two are the same bits, the flavor never feeds a store scope.
// It is chosen once per process: `NADA_NN_KERNEL=scalar|avx2` overrides,
// otherwise avx2 when the build and the CPU both support it, else scalar.
// An unknown value, or requesting avx2 where the build lacks it or the CPU
// cannot run it, throws at first dispatch rather than silently falling
// back; rl::BatchProbeTrainer's constructor dispatches first, so the error
// fails the run instead of a design. docs/KERNELS.md is the full contract.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nada::nn {

/// kFma names the retired fused multiply-add flavor: nothing resolves to it
/// and set_kernel_flavor rejects it. It is kept only while the end-to-end
/// benchmark's golden check (nada_bench/nada_bench.cpp) names it; delete
/// both together.
enum class KernelFlavor : int { kScalar = 0, kAvx2 = 1, kFma = 2 };

[[nodiscard]] const char* kernel_flavor_name(KernelFlavor flavor);

/// CPUID feature probe (false on non-x86 builds).
[[nodiscard]] bool cpu_supports_avx2();

/// Whether this binary was compiled with the AVX2 kernel objects (CMake
/// builds them only when the toolchain targets x86 and accepts -mavx2).
[[nodiscard]] bool built_with_avx2_kernels();

/// The process-wide active flavor. Resolved from NADA_NN_KERNEL on first
/// call (strict: unknown values and unsatisfiable requests throw) and
/// cached; set_kernel_flavor overrides it thereafter (tests and benches).
[[nodiscard]] KernelFlavor kernel_flavor();
void set_kernel_flavor(KernelFlavor flavor);

/// Pure resolution logic, separated from CPUID/getenv so tests can drive
/// every branch: `value` is the NADA_NN_KERNEL string (nullptr/empty =
/// unset), the booleans are the build and CPU capabilities.
[[nodiscard]] KernelFlavor resolve_kernel_flavor(const char* value,
                                                 bool built_avx2,
                                                 bool cpu_avx2);

// ---- kernel entry points ---------------------------------------------------
//
// Raw-pointer kernels; nn::Mat's wrappers do shape checking and volume
// accounting, then dispatch here. All matrices are row-major and dense.

/// One Adam step's coefficients (see nn::Adam): bc1 and bc2 are the bias
/// corrections 1 - beta1^t and 1 - beta2^t of step t.
struct AdamCoeffs {
  double lr, beta1, beta2, eps, bc1, bc2;
};

struct KernelTable {
  /// C (n x m) += A (n x r) * B with B (r x m); callers zero c first.
  void (*matmul)(const double* a, const double* b, double* c, std::size_t n,
                 std::size_t r, std::size_t m);
  /// C (r x m) += A^T * B with A (n x r), B (n x m), n ascending.
  void (*add_matmul_tn)(const double* a, const double* b, double* c,
                        std::size_t n, std::size_t r, std::size_t m);
  /// z[j] += wt[k * out + j] * x[k] for k ascending — the transposed-weight
  /// sweep behind every synced layer's forward, and (over W itself) the
  /// W^T dz products of the Conv1D and recurrent backward passes.
  void (*wt_axpy)(const double* wt, const double* x, double* z,
                  std::size_t k, std::size_t out);
  /// One Adam step over n parameters, element by element:
  ///   m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g;
  ///   w -= lr (m / bc1) / (sqrt(v / bc2) + eps);  g = 0.
  void (*adam)(double* w, double* g, double* m, double* v, std::size_t n,
               const AdamCoeffs& c);
};

/// The table for the active flavor; resolves kernel_flavor() on first use.
[[nodiscard]] const KernelTable& active_kernels();

// ---- volume accounting -----------------------------------------------------

/// Per-thread tallies of batched kernel work, updated by the Mat wrappers.
/// BatchProbeTrainer snapshots the calling thread's tallies around each
/// block and publishes the delta as nn.matmul.calls / nn.matmul.flops
/// (a block runs entirely on one thread, so the delta is the block's own).
struct KernelCounters {
  std::uint64_t matmul_calls = 0;
  std::uint64_t matmul_flops = 0;  ///< 2 * n * m * inner per mat-mat call
};

[[nodiscard]] KernelCounters& thread_kernel_counters();

namespace detail {

// Scalar flavor (always built).
void matmul_scalar(const double* a, const double* b, double* c, std::size_t n,
                   std::size_t r, std::size_t m);
void add_matmul_tn_scalar(const double* a, const double* b, double* c,
                          std::size_t n, std::size_t r, std::size_t m);
void wt_axpy_scalar(const double* wt, const double* x, double* z,
                    std::size_t k, std::size_t out);
void adam_scalar(double* w, double* g, double* m, double* v, std::size_t n,
                 const AdamCoeffs& c);

// AVX2 flavor; the definitions exist only when its object library is
// compiled in (see built_with_avx2_kernels). Declared unconditionally so
// the dispatch TU can reference them behind its build-capability macro.
namespace avx2 {
void matmul(const double* a, const double* b, double* c, std::size_t n,
            std::size_t r, std::size_t m);
void add_matmul_tn(const double* a, const double* b, double* c, std::size_t n,
                   std::size_t r, std::size_t m);
void wt_axpy(const double* wt, const double* x, double* z, std::size_t k,
             std::size_t out);
void adam(double* w, double* g, double* m, double* v, std::size_t n,
          const AdamCoeffs& c);
}  // namespace avx2

}  // namespace detail

}  // namespace nada::nn
