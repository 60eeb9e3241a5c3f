#include "nn/mat_kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

// NADA_NN_HAVE_AVX2 is set on this translation unit by CMake exactly when
// the avx2 object library is compiled in, so the dispatch table can only
// ever point at code that exists in the binary.

namespace nada::nn {

const char* kernel_flavor_name(KernelFlavor flavor) {
  switch (flavor) {
    case KernelFlavor::kScalar: return "scalar";
    case KernelFlavor::kAvx2: return "avx2";
    case KernelFlavor::kFma: return "fma";
  }
  return "?";
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool built_with_avx2_kernels() {
#if defined(NADA_NN_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

KernelFlavor resolve_kernel_flavor(const char* value, bool built_avx2,
                                   bool cpu_avx2) {
  if (value == nullptr || *value == '\0') {
    return built_avx2 && cpu_avx2 ? KernelFlavor::kAvx2
                                  : KernelFlavor::kScalar;
  }
  const std::string v(value);
  if (v == "scalar") return KernelFlavor::kScalar;
  if (v == "avx2") {
    if (!built_avx2) {
      throw std::runtime_error(
          "NADA_NN_KERNEL=avx2 requested but this binary was built without "
          "the AVX2 kernel objects (non-x86 target or compiler lacking "
          "-mavx2)");
    }
    if (!cpu_avx2) {
      throw std::runtime_error(
          "NADA_NN_KERNEL=avx2 requested but this CPU does not report AVX2 "
          "support");
    }
    return KernelFlavor::kAvx2;
  }
  throw std::runtime_error(
      "NADA_NN_KERNEL must be one of scalar|avx2, got \"" + v + "\"");
}

namespace {

constexpr KernelTable kScalarTable = {
    detail::matmul_scalar,
    detail::add_matmul_tn_scalar,
    detail::wt_axpy_scalar,
    detail::adam_scalar,
};

#if defined(NADA_NN_HAVE_AVX2)
constexpr KernelTable kAvx2Table = {
    detail::avx2::matmul,
    detail::avx2::add_matmul_tn,
    detail::avx2::wt_axpy,
    detail::avx2::adam,
};
#endif

const KernelTable& table_for(KernelFlavor flavor) {
  if (flavor == KernelFlavor::kScalar) return kScalarTable;
#if defined(NADA_NN_HAVE_AVX2)
  if (flavor == KernelFlavor::kAvx2) return kAvx2Table;
#endif
  throw std::logic_error(std::string("kernel flavor ") +
                         kernel_flavor_name(flavor) +
                         " is not compiled into this binary");
}

// The resolved table, published with release/acquire so a throwing resolve
// never publishes and every thread sees a fully initialized table.
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_flavor{-1};

const KernelTable* resolve_and_publish() {
  const KernelFlavor flavor =
      resolve_kernel_flavor(std::getenv("NADA_NN_KERNEL"),
                            built_with_avx2_kernels(), cpu_supports_avx2());
  const KernelTable* table = &table_for(flavor);
  g_flavor.store(static_cast<int>(flavor), std::memory_order_relaxed);
  g_table.store(table, std::memory_order_release);
  return table;
}

}  // namespace

KernelFlavor kernel_flavor() {
  if (g_table.load(std::memory_order_acquire) == nullptr) {
    resolve_and_publish();
  }
  return static_cast<KernelFlavor>(g_flavor.load(std::memory_order_relaxed));
}

void set_kernel_flavor(KernelFlavor flavor) {
  const KernelTable* table = &table_for(flavor);  // throws if not built
  if (flavor == KernelFlavor::kAvx2 && !cpu_supports_avx2()) {
    throw std::runtime_error(
        "set_kernel_flavor(avx2): this CPU does not report AVX2 support");
  }
  g_flavor.store(static_cast<int>(flavor), std::memory_order_relaxed);
  g_table.store(table, std::memory_order_release);
}

const KernelTable& active_kernels() {
  const KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table == nullptr) table = resolve_and_publish();
  return *table;
}

KernelCounters& thread_kernel_counters() {
  thread_local KernelCounters counters;
  return counters;
}

// ---- scalar flavor ---------------------------------------------------------
//
// The reference kernels: four samples advance together through
// independent accumulators, which cuts weight-matrix traffic by 4x — while
// each OUTPUT ELEMENT still accumulates its own products in exactly the
// serial order, so results stay bit-identical to the per-sample loops
// (pinned by tests/nn_test.cpp's bitwise comparisons). The avx2 flavor
// maps these same accumulators onto SIMD lanes; see mat_kernels_avx2.cpp.

namespace detail {

void matmul_scalar(const double* a, const double* b, double* c, std::size_t n,
                   std::size_t r_dim, std::size_t m) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = a + i * r_dim;
    const double* a1 = a0 + r_dim;
    const double* a2 = a1 + r_dim;
    const double* a3 = a2 + r_dim;
    double* c0 = c + i * m;
    double* c1 = c0 + m;
    double* c2 = c1 + m;
    double* c3 = c2 + m;
    for (std::size_t r = 0; r < r_dim; ++r) {
      const double* brow = b + r * m;
      const double x0 = a0[r], x1 = a1[r], x2 = a2[r], x3 = a3[r];
      for (std::size_t j = 0; j < m; ++j) {
        const double w = brow[j];
        c0[j] += w * x0;
        c1[j] += w * x1;
        c2[j] += w * x2;
        c3[j] += w * x3;
      }
    }
  }
  for (; i < n; ++i) {
    const double* arow = a + i * r_dim;
    double* crow = c + i * m;
    for (std::size_t r = 0; r < r_dim; ++r) {
      const double ar = arow[r];
      const double* brow = b + r * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += brow[j] * ar;
    }
  }
}

void add_matmul_tn_scalar(const double* a, const double* b, double* c,
                          std::size_t n, std::size_t r_dim, std::size_t m) {
  // Four samples per sweep over C, accumulated IN SAMPLE ORDER per element:
  // (((c + p_n) + p_{n+1}) + p_{n+2}) + p_{n+3} is exactly the serial
  // add_outer chain, while C is streamed 4x less often.
  std::size_t sample = 0;
  for (; sample + 4 <= n; sample += 4) {
    const double* a0 = a + sample * r_dim;
    const double* a1 = a0 + r_dim;
    const double* a2 = a1 + r_dim;
    const double* a3 = a2 + r_dim;
    const double* b0 = b + sample * m;
    const double* b1 = b0 + m;
    const double* b2 = b1 + m;
    const double* b3 = b2 + m;
    for (std::size_t r = 0; r < r_dim; ++r) {
      const double x0 = a0[r], x1 = a1[r], x2 = a2[r], x3 = a3[r];
      double* crow = c + r * m;
      for (std::size_t j = 0; j < m; ++j) {
        double acc = crow[j];
        acc += x0 * b0[j];
        acc += x1 * b1[j];
        acc += x2 * b2[j];
        acc += x3 * b3[j];
        crow[j] = acc;
      }
    }
  }
  for (; sample < n; ++sample) {
    const double* arow = a + sample * r_dim;
    const double* brow = b + sample * m;
    for (std::size_t r = 0; r < r_dim; ++r) {
      const double ar = arow[r];
      double* crow = c + r * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += ar * brow[j];
    }
  }
}

void wt_axpy_scalar(const double* wt, const double* x, double* z,
                    std::size_t k_dim, std::size_t out) {
  for (std::size_t k = 0; k < k_dim; ++k) {
    const double xk = x[k];
    const double* wt_row = wt + k * out;
    for (std::size_t j = 0; j < out; ++j) z[j] += wt_row[j] * xk;
  }
}

void adam_scalar(double* w, double* g, double* m, double* v, std::size_t n,
                 const AdamCoeffs& c) {
  const double one_minus_beta1 = 1.0 - c.beta1;
  const double one_minus_beta2 = 1.0 - c.beta2;
  for (std::size_t j = 0; j < n; ++j) {
    m[j] = c.beta1 * m[j] + one_minus_beta1 * g[j];
    v[j] = c.beta2 * v[j] + one_minus_beta2 * g[j] * g[j];
    const double m_hat = m[j] / c.bc1;
    const double v_hat = v[j] / c.bc2;
    w[j] -= c.lr * m_hat / (std::sqrt(v_hat) + c.eps);
    g[j] = 0.0;
  }
}

}  // namespace detail

}  // namespace nada::nn
