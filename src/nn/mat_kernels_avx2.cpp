// AVX2 kernel flavor. Compiled into its own object library with -mavx2
// -mno-fma -ffp-contract=off, so no vector instruction leaks into a
// translation unit that a non-AVX2 machine executes unguarded.
//
// The bit-identity argument: every kernel puts independent output columns
// in vector LANES and keeps the loop that defines each output element's
// accumulation order exactly as the scalar kernel runs it. A lane of
// _mm256_add_pd(acc, _mm256_mul_pd(w, x)) performs the same two IEEE-754
// double roundings as the scalar `acc + w * x`, so every element sees the
// same values in the same order with the same roundings — equal bits.
// -mno-fma -ffp-contract=off forbids the compiler from fusing that mul+add
// pair behind our back.
//
// Remainder handling: row tails (< 4) run one row at a time and column
// tails (< vector width) element by element, each element in the same
// order as in a full tile.

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "nn/mat_kernels.h"

namespace nada::nn::detail::avx2 {

namespace {

inline __m256d madd(__m256d acc, __m256d a, __m256d b) {
  return _mm256_add_pd(acc, _mm256_mul_pd(a, b));
}

inline double madd1(double acc, double a, double b) { return acc + a * b; }

}  // namespace

void matmul(const double* a, const double* b, double* c, std::size_t n,
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
    std::size_t j = 0;
    // Column block of 8: eight accumulators live in registers across the
    // whole r sweep — C is loaded and stored once per block instead of
    // once per r step.
    for (; j + 8 <= m; j += 8) {
      __m256d s00 = _mm256_loadu_pd(c0 + j);
      __m256d s01 = _mm256_loadu_pd(c0 + j + 4);
      __m256d s10 = _mm256_loadu_pd(c1 + j);
      __m256d s11 = _mm256_loadu_pd(c1 + j + 4);
      __m256d s20 = _mm256_loadu_pd(c2 + j);
      __m256d s21 = _mm256_loadu_pd(c2 + j + 4);
      __m256d s30 = _mm256_loadu_pd(c3 + j);
      __m256d s31 = _mm256_loadu_pd(c3 + j + 4);
      for (std::size_t r = 0; r < r_dim; ++r) {
        const double* brow = b + r * m;
        const __m256d w0 = _mm256_loadu_pd(brow + j);
        const __m256d w1 = _mm256_loadu_pd(brow + j + 4);
        const __m256d x0 = _mm256_set1_pd(a0[r]);
        s00 = madd(s00, w0, x0);
        s01 = madd(s01, w1, x0);
        const __m256d x1 = _mm256_set1_pd(a1[r]);
        s10 = madd(s10, w0, x1);
        s11 = madd(s11, w1, x1);
        const __m256d x2 = _mm256_set1_pd(a2[r]);
        s20 = madd(s20, w0, x2);
        s21 = madd(s21, w1, x2);
        const __m256d x3 = _mm256_set1_pd(a3[r]);
        s30 = madd(s30, w0, x3);
        s31 = madd(s31, w1, x3);
      }
      _mm256_storeu_pd(c0 + j, s00);
      _mm256_storeu_pd(c0 + j + 4, s01);
      _mm256_storeu_pd(c1 + j, s10);
      _mm256_storeu_pd(c1 + j + 4, s11);
      _mm256_storeu_pd(c2 + j, s20);
      _mm256_storeu_pd(c2 + j + 4, s21);
      _mm256_storeu_pd(c3 + j, s30);
      _mm256_storeu_pd(c3 + j + 4, s31);
    }
    for (; j + 4 <= m; j += 4) {
      __m256d s0 = _mm256_loadu_pd(c0 + j);
      __m256d s1 = _mm256_loadu_pd(c1 + j);
      __m256d s2 = _mm256_loadu_pd(c2 + j);
      __m256d s3 = _mm256_loadu_pd(c3 + j);
      for (std::size_t r = 0; r < r_dim; ++r) {
        const __m256d w = _mm256_loadu_pd(b + r * m + j);
        s0 = madd(s0, w, _mm256_set1_pd(a0[r]));
        s1 = madd(s1, w, _mm256_set1_pd(a1[r]));
        s2 = madd(s2, w, _mm256_set1_pd(a2[r]));
        s3 = madd(s3, w, _mm256_set1_pd(a3[r]));
      }
      _mm256_storeu_pd(c0 + j, s0);
      _mm256_storeu_pd(c1 + j, s1);
      _mm256_storeu_pd(c2 + j, s2);
      _mm256_storeu_pd(c3 + j, s3);
    }
    // Column tail (< 4): per-element r-ascending accumulate.
    for (; j < m; ++j) {
      double t0 = c0[j], t1 = c1[j], t2 = c2[j], t3 = c3[j];
      for (std::size_t r = 0; r < r_dim; ++r) {
        const double w = b[r * m + j];
        t0 = madd1(t0, w, a0[r]);
        t1 = madd1(t1, w, a1[r]);
        t2 = madd1(t2, w, a2[r]);
        t3 = madd1(t3, w, a3[r]);
      }
      c0[j] = t0;
      c1[j] = t1;
      c2[j] = t2;
      c3[j] = t3;
    }
  }
  // Row tail: one row at a time, columns vectorized — the per-element
  // accumulation order (r ascending) is unchanged.
  for (; i < n; ++i) {
    const double* arow = a + i * r_dim;
    double* crow = c + i * m;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      __m256d s = _mm256_loadu_pd(crow + j);
      for (std::size_t r = 0; r < r_dim; ++r) {
        s = madd(s, _mm256_loadu_pd(b + r * m + j), _mm256_set1_pd(arow[r]));
      }
      _mm256_storeu_pd(crow + j, s);
    }
    for (; j < m; ++j) {
      double t = crow[j];
      for (std::size_t r = 0; r < r_dim; ++r) {
        t = madd1(t, b[r * m + j], arow[r]);
      }
      crow[j] = t;
    }
  }
}

void add_matmul_tn(const double* a, const double* b, double* c, std::size_t n,
                   std::size_t r_dim, std::size_t m) {
  // A tile of C stays in registers across the whole sample sweep: per
  // element the chain is c + a_0 b_0 + a_1 b_1 + ... in sample order —
  // the serial add_outer chain — and the tile is loaded and stored once.
  std::size_t r = 0;
  for (; r + 4 <= r_dim; r += 4) {
    double* c0 = c + r * m;
    double* c1 = c0 + m;
    double* c2 = c1 + m;
    double* c3 = c2 + m;
    std::size_t j = 0;
    // 4 rows x 8 columns: eight accumulators.
    for (; j + 8 <= m; j += 8) {
      __m256d s00 = _mm256_loadu_pd(c0 + j);
      __m256d s01 = _mm256_loadu_pd(c0 + j + 4);
      __m256d s10 = _mm256_loadu_pd(c1 + j);
      __m256d s11 = _mm256_loadu_pd(c1 + j + 4);
      __m256d s20 = _mm256_loadu_pd(c2 + j);
      __m256d s21 = _mm256_loadu_pd(c2 + j + 4);
      __m256d s30 = _mm256_loadu_pd(c3 + j);
      __m256d s31 = _mm256_loadu_pd(c3 + j + 4);
      for (std::size_t sample = 0; sample < n; ++sample) {
        const double* arow = a + sample * r_dim + r;
        const double* brow = b + sample * m + j;
        const __m256d b0 = _mm256_loadu_pd(brow);
        const __m256d b1 = _mm256_loadu_pd(brow + 4);
        const __m256d x0 = _mm256_set1_pd(arow[0]);
        s00 = madd(s00, x0, b0);
        s01 = madd(s01, x0, b1);
        const __m256d x1 = _mm256_set1_pd(arow[1]);
        s10 = madd(s10, x1, b0);
        s11 = madd(s11, x1, b1);
        const __m256d x2 = _mm256_set1_pd(arow[2]);
        s20 = madd(s20, x2, b0);
        s21 = madd(s21, x2, b1);
        const __m256d x3 = _mm256_set1_pd(arow[3]);
        s30 = madd(s30, x3, b0);
        s31 = madd(s31, x3, b1);
      }
      _mm256_storeu_pd(c0 + j, s00);
      _mm256_storeu_pd(c0 + j + 4, s01);
      _mm256_storeu_pd(c1 + j, s10);
      _mm256_storeu_pd(c1 + j + 4, s11);
      _mm256_storeu_pd(c2 + j, s20);
      _mm256_storeu_pd(c2 + j + 4, s21);
      _mm256_storeu_pd(c3 + j, s30);
      _mm256_storeu_pd(c3 + j + 4, s31);
    }
    for (; j + 4 <= m; j += 4) {
      __m256d s0 = _mm256_loadu_pd(c0 + j);
      __m256d s1 = _mm256_loadu_pd(c1 + j);
      __m256d s2 = _mm256_loadu_pd(c2 + j);
      __m256d s3 = _mm256_loadu_pd(c3 + j);
      for (std::size_t sample = 0; sample < n; ++sample) {
        const double* arow = a + sample * r_dim + r;
        const __m256d bv = _mm256_loadu_pd(b + sample * m + j);
        s0 = madd(s0, _mm256_set1_pd(arow[0]), bv);
        s1 = madd(s1, _mm256_set1_pd(arow[1]), bv);
        s2 = madd(s2, _mm256_set1_pd(arow[2]), bv);
        s3 = madd(s3, _mm256_set1_pd(arow[3]), bv);
      }
      _mm256_storeu_pd(c0 + j, s0);
      _mm256_storeu_pd(c1 + j, s1);
      _mm256_storeu_pd(c2 + j, s2);
      _mm256_storeu_pd(c3 + j, s3);
    }
    // Column tail (< 4).
    for (; j < m; ++j) {
      double t0 = c0[j], t1 = c1[j], t2 = c2[j], t3 = c3[j];
      for (std::size_t sample = 0; sample < n; ++sample) {
        const double* arow = a + sample * r_dim + r;
        const double bj = b[sample * m + j];
        t0 = madd1(t0, arow[0], bj);
        t1 = madd1(t1, arow[1], bj);
        t2 = madd1(t2, arow[2], bj);
        t3 = madd1(t3, arow[3], bj);
      }
      c0[j] = t0;
      c1[j] = t1;
      c2[j] = t2;
      c3[j] = t3;
    }
  }
  // Row tail (< 4): one row at a time, 16 columns per sweep so four
  // accumulator chains run side by side.
  for (; r < r_dim; ++r) {
    double* crow = c + r * m;
    std::size_t j = 0;
    for (; j + 16 <= m; j += 16) {
      __m256d s0 = _mm256_loadu_pd(crow + j);
      __m256d s1 = _mm256_loadu_pd(crow + j + 4);
      __m256d s2 = _mm256_loadu_pd(crow + j + 8);
      __m256d s3 = _mm256_loadu_pd(crow + j + 12);
      for (std::size_t sample = 0; sample < n; ++sample) {
        const __m256d ar = _mm256_set1_pd(a[sample * r_dim + r]);
        const double* brow = b + sample * m + j;
        s0 = madd(s0, ar, _mm256_loadu_pd(brow));
        s1 = madd(s1, ar, _mm256_loadu_pd(brow + 4));
        s2 = madd(s2, ar, _mm256_loadu_pd(brow + 8));
        s3 = madd(s3, ar, _mm256_loadu_pd(brow + 12));
      }
      _mm256_storeu_pd(crow + j, s0);
      _mm256_storeu_pd(crow + j + 4, s1);
      _mm256_storeu_pd(crow + j + 8, s2);
      _mm256_storeu_pd(crow + j + 12, s3);
    }
    for (; j + 4 <= m; j += 4) {
      __m256d s = _mm256_loadu_pd(crow + j);
      for (std::size_t sample = 0; sample < n; ++sample) {
        s = madd(s, _mm256_set1_pd(a[sample * r_dim + r]),
                 _mm256_loadu_pd(b + sample * m + j));
      }
      _mm256_storeu_pd(crow + j, s);
    }
    for (; j < m; ++j) {
      double t = crow[j];
      for (std::size_t sample = 0; sample < n; ++sample) {
        t = madd1(t, a[sample * r_dim + r], b[sample * m + j]);
      }
      crow[j] = t;
    }
  }
}

void wt_axpy(const double* wt, const double* x, double* z, std::size_t k_dim,
             std::size_t out) {
  std::size_t j = 0;
  // Column blocks held in registers across the whole k sweep; per element
  // the accumulation stays k-ascending exactly as the scalar sweep runs.
  // 32 columns first: eight independent accumulator chains.
  for (; j + 32 <= out; j += 32) {
    __m256d s0 = _mm256_loadu_pd(z + j);
    __m256d s1 = _mm256_loadu_pd(z + j + 4);
    __m256d s2 = _mm256_loadu_pd(z + j + 8);
    __m256d s3 = _mm256_loadu_pd(z + j + 12);
    __m256d s4 = _mm256_loadu_pd(z + j + 16);
    __m256d s5 = _mm256_loadu_pd(z + j + 20);
    __m256d s6 = _mm256_loadu_pd(z + j + 24);
    __m256d s7 = _mm256_loadu_pd(z + j + 28);
    for (std::size_t k = 0; k < k_dim; ++k) {
      const __m256d xv = _mm256_set1_pd(x[k]);
      const double* wt_row = wt + k * out + j;
      s0 = madd(s0, _mm256_loadu_pd(wt_row), xv);
      s1 = madd(s1, _mm256_loadu_pd(wt_row + 4), xv);
      s2 = madd(s2, _mm256_loadu_pd(wt_row + 8), xv);
      s3 = madd(s3, _mm256_loadu_pd(wt_row + 12), xv);
      s4 = madd(s4, _mm256_loadu_pd(wt_row + 16), xv);
      s5 = madd(s5, _mm256_loadu_pd(wt_row + 20), xv);
      s6 = madd(s6, _mm256_loadu_pd(wt_row + 24), xv);
      s7 = madd(s7, _mm256_loadu_pd(wt_row + 28), xv);
    }
    _mm256_storeu_pd(z + j, s0);
    _mm256_storeu_pd(z + j + 4, s1);
    _mm256_storeu_pd(z + j + 8, s2);
    _mm256_storeu_pd(z + j + 12, s3);
    _mm256_storeu_pd(z + j + 16, s4);
    _mm256_storeu_pd(z + j + 20, s5);
    _mm256_storeu_pd(z + j + 24, s6);
    _mm256_storeu_pd(z + j + 28, s7);
  }
  for (; j + 16 <= out; j += 16) {
    __m256d s0 = _mm256_loadu_pd(z + j);
    __m256d s1 = _mm256_loadu_pd(z + j + 4);
    __m256d s2 = _mm256_loadu_pd(z + j + 8);
    __m256d s3 = _mm256_loadu_pd(z + j + 12);
    for (std::size_t k = 0; k < k_dim; ++k) {
      const __m256d xv = _mm256_set1_pd(x[k]);
      const double* wt_row = wt + k * out + j;
      s0 = madd(s0, _mm256_loadu_pd(wt_row), xv);
      s1 = madd(s1, _mm256_loadu_pd(wt_row + 4), xv);
      s2 = madd(s2, _mm256_loadu_pd(wt_row + 8), xv);
      s3 = madd(s3, _mm256_loadu_pd(wt_row + 12), xv);
    }
    _mm256_storeu_pd(z + j, s0);
    _mm256_storeu_pd(z + j + 4, s1);
    _mm256_storeu_pd(z + j + 8, s2);
    _mm256_storeu_pd(z + j + 12, s3);
  }
  for (; j + 8 <= out; j += 8) {
    __m256d s0 = _mm256_loadu_pd(z + j);
    __m256d s1 = _mm256_loadu_pd(z + j + 4);
    for (std::size_t k = 0; k < k_dim; ++k) {
      const __m256d xv = _mm256_set1_pd(x[k]);
      const double* wt_row = wt + k * out;
      s0 = madd(s0, _mm256_loadu_pd(wt_row + j), xv);
      s1 = madd(s1, _mm256_loadu_pd(wt_row + j + 4), xv);
    }
    _mm256_storeu_pd(z + j, s0);
    _mm256_storeu_pd(z + j + 4, s1);
  }
  for (; j + 4 <= out; j += 4) {
    __m256d s = _mm256_loadu_pd(z + j);
    for (std::size_t k = 0; k < k_dim; ++k) {
      s = madd(s, _mm256_loadu_pd(wt + k * out + j), _mm256_set1_pd(x[k]));
    }
    _mm256_storeu_pd(z + j, s);
  }
  for (; j < out; ++j) {
    double acc = z[j];
    for (std::size_t k = 0; k < k_dim; ++k) {
      acc = madd1(acc, wt[k * out + j], x[k]);
    }
    z[j] = acc;
  }
}

void adam(double* w, double* g, double* m, double* v, std::size_t n,
          const AdamCoeffs& c) {
  // Element-wise with no reduction, and _mm256_div_pd / _mm256_sqrt_pd are
  // correctly rounded like scalar / and std::sqrt: this is the scalar loop
  // lane by lane.
  const double one_minus_beta1 = 1.0 - c.beta1;
  const double one_minus_beta2 = 1.0 - c.beta2;
  const __m256d beta1 = _mm256_set1_pd(c.beta1);
  const __m256d beta2 = _mm256_set1_pd(c.beta2);
  const __m256d c1 = _mm256_set1_pd(one_minus_beta1);
  const __m256d c2 = _mm256_set1_pd(one_minus_beta2);
  const __m256d bc1 = _mm256_set1_pd(c.bc1);
  const __m256d bc2 = _mm256_set1_pd(c.bc2);
  const __m256d lr = _mm256_set1_pd(c.lr);
  const __m256d eps = _mm256_set1_pd(c.eps);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d gj = _mm256_loadu_pd(g + j);
    const __m256d mj =
        madd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + j)), c1, gj);
    const __m256d vj = madd(_mm256_mul_pd(beta2, _mm256_loadu_pd(v + j)),
                            _mm256_mul_pd(c2, gj), gj);
    _mm256_storeu_pd(m + j, mj);
    _mm256_storeu_pd(v + j, vj);
    const __m256d m_hat = _mm256_div_pd(mj, bc1);
    const __m256d v_hat = _mm256_div_pd(vj, bc2);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(lr, m_hat), _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
    _mm256_storeu_pd(w + j, _mm256_sub_pd(_mm256_loadu_pd(w + j), step));
    _mm256_storeu_pd(g + j, _mm256_setzero_pd());
  }
  for (; j < n; ++j) {
    m[j] = madd1(c.beta1 * m[j], one_minus_beta1, g[j]);
    v[j] = madd1(c.beta2 * v[j], one_minus_beta2 * g[j], g[j]);
    const double m_hat = m[j] / c.bc1;
    const double v_hat = v[j] / c.bc2;
    w[j] -= c.lr * m_hat / (std::sqrt(v_hat) + c.eps);
    g[j] = 0.0;
  }
}

}  // namespace nada::nn::detail::avx2
