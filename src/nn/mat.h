// Dense matrix/vector math for the from-scratch neural network library.
//
// Networks in this repository are small (histories of length 8, hidden
// sizes <= 256), so a simple row-major double matrix is enough. All layers
// build on Mat: its matvec is the exact path an unsynced layer computes
// one sample with, and the batched kernels below carry the batched
// backward pass.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/aligned.h"
#include "util/rng.h"

namespace nada::nn {

using Vec = std::vector<double>;

/// Matrix element storage: 32-byte aligned so the avx2 kernel flavor (see
/// nn/mat_kernels.h) always sees a register-aligned base pointer. Rows at an
/// arbitrary column count are not individually aligned — the kernels use
/// unaligned loads — but whole-matrix sweeps start on a vector boundary.
using AlignedVec = std::vector<double, util::AlignedAlloc<double, 32>>;

/// Row-major dense matrix.
class Mat {
 public:
  /// Storage alignment guarantee, in bytes (one AVX2 register of doubles).
  static constexpr std::size_t kAlignment = 32;

  Mat() = default;
  Mat(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] AlignedVec& data() { return data_; }
  [[nodiscard]] const AlignedVec& data() const { return data_; }

  /// Aligned base pointer (32-byte; see kAlignment).
  [[nodiscard]] double* ptr() { return data_.data(); }
  [[nodiscard]] const double* ptr() const { return data_.data(); }

  /// View of one row (rows are contiguous in the row-major layout).
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }

  void fill(double value);
  void zero() { fill(0.0); }

  /// Xavier/Glorot uniform init (for tanh/sigmoid layers).
  void init_xavier(util::Rng& rng);
  /// He (Kaiming) normal init (for ReLU-family layers).
  void init_he(util::Rng& rng);

  /// y = this * x  (rows x cols) * (cols) -> (rows), each element one
  /// c-ascending dot product.
  void matvec(std::span<const double> x, std::span<double> y) const;
  [[nodiscard]] Vec matvec(std::span<const double> x) const;

  /// y = this^T * x  (cols) from (rows)
  [[nodiscard]] Vec matvec_transposed(std::span<const double> x) const;

  /// this += outer(a, b) * scale, where a has `rows` and b has `cols`.
  void add_outer(std::span<const double> a, std::span<const double> b,
                 double scale = 1.0);

  void add_scaled(const Mat& other, double scale);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVec data_;
};

// ---- Batched (matrix-matrix) kernels --------------------------------------
//
// These carry the layers' batched backward pass. Each kernel's per-element
// accumulation order matches its per-sample counterpart (matvec_transposed,
// add_outer) exactly, so a batched backward is bit-identical to one sample
// at a time — the property tests/nn_test.cpp pins against the serial
// oracle.
//
// The wrappers shape-check, account call volume, and dispatch to the
// active kernel flavor (nn/mat_kernels.h): scalar or avx2, bit-identical
// by contract.

/// C = A * B with A (n x r) and B (r x m) -> C (n x m). Row i of C is
/// bit-identical to B.matvec_transposed(row i of A): the r-dimension
/// accumulates in ascending order.
[[nodiscard]] Mat matmul(const Mat& a, const Mat& b);

/// C += A^T * B with A (n x r), B (n x c), C (r x c), accumulating the
/// n-dimension in ascending order — bit-identical to n successive
/// C.add_outer(row i of A, row i of B) calls.
void add_matmul_tn(Mat& c, const Mat& a, const Mat& b);

/// Writes A^T into `out`, which must already be (A.cols x A.rows), in
/// cache-sized tiles. Synced layers keep W^T this way so their forward
/// sweeps contiguous output columns — the vectorizable formulation of the
/// same k-ascending dot product — without a fresh matrix per sync.
void transpose(const Mat& a, Mat& out);

// ---- Vector helpers -------------------------------------------------------

[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);
/// Writes softmax(logits) into `probs` (logits.size() doubles).
void softmax(std::span<const double> logits, std::span<double> probs);
[[nodiscard]] Vec softmax(std::span<const double> logits);
[[nodiscard]] double l2_norm(std::span<const double> a);

/// Numerically safe entropy of a probability vector.
[[nodiscard]] double entropy(std::span<const double> probs);

/// Resamples a series to `target_len` points by linear interpolation;
/// used to feed variable-length reward curves into fixed-size classifiers.
[[nodiscard]] Vec resample_linear(std::span<const double> xs,
                                  std::size_t target_len);

}  // namespace nada::nn
