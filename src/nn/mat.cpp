#include "nn/mat.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/mat_kernels.h"

namespace nada::nn {

Mat::Mat(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("Mat: zero dimension");
  }
}

double& Mat::operator()(std::size_t r, std::size_t c) {
  return data_[r * cols_ + c];
}

double Mat::operator()(std::size_t r, std::size_t c) const {
  return data_[r * cols_ + c];
}

void Mat::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Mat::init_xavier(util::Rng& rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
  for (double& w : data_) w = rng.uniform(-limit, limit);
}

void Mat::init_he(util::Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(cols_));
  for (double& w : data_) w = rng.normal(0.0, stddev);
}

void Mat::matvec(std::span<const double> x, std::span<double> y) const {
  if (x.size() != cols_ || y.size() != rows_) {
    throw std::invalid_argument("matvec: size mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

Vec Mat::matvec(std::span<const double> x) const {
  Vec y(rows_);
  matvec(x, y);
  return y;
}

Vec Mat::matvec_transposed(std::span<const double> x) const {
  if (x.size() != rows_) {
    throw std::invalid_argument("matvec_transposed: size mismatch");
  }
  Vec y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
  return y;
}

void Mat::add_outer(std::span<const double> a, std::span<const double> b,
                    double scale) {
  if (a.size() != rows_ || b.size() != cols_) {
    throw std::invalid_argument("add_outer: size mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const double ar = a[r] * scale;
    double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) row[c] += ar * b[c];
  }
}

void Mat::add_scaled(const Mat& other, double scale) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("add_scaled: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i] * scale;
  }
}

// The batched kernels are register-tiled: four samples (or four
// accumulation steps) advance together through independent accumulators,
// while each OUTPUT ELEMENT still accumulates its own products in exactly
// the serial order, so results stay bit-identical to the per-sample loops
// (pinned by tests/nn_test.cpp's bitwise comparisons). The loop bodies
// live in nn/mat_kernels.* in scalar and avx2 flavors; these wrappers
// shape-check, tally call volume for the nn.matmul.* metrics, and dispatch
// to the active flavor.

namespace {

inline void tally_matmul(std::size_t n, std::size_t inner, std::size_t m) {
  KernelCounters& counters = thread_kernel_counters();
  counters.matmul_calls += 1;
  counters.matmul_flops +=
      2 * static_cast<std::uint64_t>(n) * inner * m;
}

}  // namespace

Mat matmul(const Mat& a, const Mat& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimension mismatch");
  }
  Mat c(a.rows(), b.cols());  // zero-filled; the kernel accumulates
  tally_matmul(a.rows(), a.cols(), b.cols());
  active_kernels().matmul(a.ptr(), b.ptr(), c.ptr(), a.rows(), a.cols(),
                          b.cols());
  return c;
}

void add_matmul_tn(Mat& c, const Mat& a, const Mat& b) {
  if (a.rows() != b.rows() || c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("add_matmul_tn: shape mismatch");
  }
  tally_matmul(a.rows(), c.rows(), c.cols());
  active_kernels().add_matmul_tn(a.ptr(), b.ptr(), c.ptr(), a.rows(),
                                 c.rows(), c.cols());
}

void transpose(const Mat& a, Mat& out) {
  if (out.rows() != a.cols() || out.cols() != a.rows()) {
    throw std::invalid_argument("transpose: shape mismatch");
  }
  // 8x8 tiles: each tile reads eight source rows and writes eight
  // destination rows one cache line wide, instead of striding the whole
  // destination once per source row.
  constexpr std::size_t kTile = 8;
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  const double* src = a.ptr();
  double* dst = out.ptr();
  for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::size_t r1 = std::min(r0 + kTile, rows);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::size_t c1 = std::min(c0 + kTile, cols);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void softmax(std::span<const double> logits, std::span<double> probs) {
  if (logits.empty()) throw std::invalid_argument("softmax: empty");
  if (probs.size() != logits.size()) {
    throw std::invalid_argument("softmax: size mismatch");
  }
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(logits[i] - max_logit);
    total += probs[i];
  }
  for (double& p : probs) p /= total;
}

Vec softmax(std::span<const double> logits) {
  Vec probs(logits.size());
  softmax(logits, probs);
  return probs;
}

double l2_norm(std::span<const double> a) {
  double acc = 0.0;
  for (double x : a) acc += x * x;
  return std::sqrt(acc);
}

double entropy(std::span<const double> probs) {
  double h = 0.0;
  for (double p : probs) {
    if (p > 1e-12) h -= p * std::log(p);
  }
  return h;
}

Vec resample_linear(std::span<const double> xs, std::size_t target_len) {
  if (target_len == 0) throw std::invalid_argument("resample_linear: len 0");
  Vec out(target_len, 0.0);
  if (xs.empty()) return out;
  if (xs.size() == 1) {
    std::fill(out.begin(), out.end(), xs[0]);
    return out;
  }
  for (std::size_t i = 0; i < target_len; ++i) {
    const double pos = target_len == 1
                           ? 0.0
                           : static_cast<double>(i) *
                                 static_cast<double>(xs.size() - 1) /
                                 static_cast<double>(target_len - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    out[i] = xs[lo] * (1.0 - frac) + xs[hi] * frac;
  }
  return out;
}

}  // namespace nada::nn
