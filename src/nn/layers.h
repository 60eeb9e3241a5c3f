// Neural network layers with one forward body, run two ways.
//
// Training captures a batch row by row and backpropagates it at once:
// begin_capture(n) sizes a layer's batch caches, capture(x, row) computes
// one sample into cache row `row` and returns the layer's output as a span
// of that row, and backward_batch(dy) takes one gradient row per captured
// sample, accumulates parameter gradients in ascending row order (so a
// multi-step A2C update or a classifier mini-batch sums naturally), and
// returns the per-row input gradients; backward_params(dy) accumulates the
// same parameter gradients and skips the input gradient. infer_into()
// runs the same forward body into one-row buffers its caller provides and
// touches no cache. Neither forward allocates. The single-sample form of
// each layer's math is the test oracle tests/nn_serial_oracle.h;
// tests/nn_test.cpp pins both passes to it bit for bit.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/mat.h"
#include "util/rng.h"

namespace nada::nn {

enum class Activation { kLinear, kRelu, kLeakyRelu, kTanh, kSigmoid, kElu };

[[nodiscard]] const char* activation_name(Activation a);
[[nodiscard]] double activate(Activation a, double z);
/// Derivative with respect to pre-activation z, given z and y=activate(z).
[[nodiscard]] double activate_grad(Activation a, double z, double y);
/// y[i] = activate(a, z[i]) over a row (y may be z): the switch runs once
/// per row, each element's expression is activate()'s.
void activate_row(Activation a, std::span<const double> z,
                  std::span<double> y);
/// dz[i] = dy[i] * activate_grad(a, z[i], y[i]) over a row, likewise.
void activate_grad_row(Activation a, std::span<const double> dy,
                       std::span<const double> z, std::span<const double> y,
                       std::span<double> dz);

/// A trainable parameter and its gradient accumulator.
struct ParamRef {
  Mat* value = nullptr;
  Mat* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Sizes the batch caches for `batch` rows. capture overwrites a row
  /// completely, so the caches are reallocated only when the shape
  /// changes.
  virtual void begin_capture(std::size_t batch) = 0;

  /// Computes one sample (in_dim() doubles, which may be a span of another
  /// layer's row) and writes what backward_batch needs into cache row
  /// `row`. Returns the output, out_dim() doubles: a span of this layer's
  /// own cache row, valid until that row is captured again or
  /// begin_capture reshapes the caches. Throws std::invalid_argument on a
  /// wrong-size input and std::out_of_range unless `row` is below the
  /// batch of the last begin_capture().
  virtual std::span<const double> capture(std::span<const double> x,
                                          std::size_t row) = 0;

  /// Inference: capture's forward body, writing the output into `y`
  /// (out_dim() doubles) with `scratch` (at least infer_scratch() doubles)
  /// as working space. Touches no cache, so it is const and safe on a
  /// shared layer whose callers each bring their own buffers. Throws
  /// std::invalid_argument on a wrong-size input.
  virtual void infer_into(std::span<const double> x, std::span<double> y,
                          std::span<double> scratch) const = 0;
  /// The scratch infer_into() needs, in doubles (0 for Dense and Conv1D).
  [[nodiscard]] virtual std::size_t infer_scratch() const { return 0; }

  /// capture() and infer_into() into a fresh Vec, for tests.
  Vec forward_capture(const Vec& x, std::size_t row) {
    const auto y = capture(x, row);
    return {y.begin(), y.end()};
  }
  [[nodiscard]] Vec infer(const Vec& x) const;

  /// Backpropagates dy (one row per captured sample): accumulates
  /// parameter gradients in ascending row order and returns per-row input
  /// gradients.
  Mat backward_batch(const Mat& dy) { return backward(dy, true); }

  /// backward_batch's parameter gradients, bit for bit, without computing
  /// the input gradient — for a layer whose input is the observation.
  void backward_params(const Mat& dy) { (void)backward(dy, false); }

  /// Rebuilds the transposed weights the fast paths sweep (Dense, Conv1D,
  /// SimpleRnn's Wh, Lstm's stacked gate weights), in place after the
  /// first call. The sweep turns each latency-bound matvec into a
  /// vectorizable pass with the same per-element accumulation order.
  /// Contract: once a layer has been synced, it must be re-synced after
  /// every parameter change before the next infer_into() or capture(),
  /// which read the cached transpose when one exists. A layer that has
  /// never been synced uses its exact slow path everywhere, so a training
  /// loop that never syncs never goes stale.
  virtual void sync_inference_cache() = 0;

  virtual std::vector<ParamRef> params() = 0;

  [[nodiscard]] virtual std::size_t in_dim() const = 0;
  [[nodiscard]] virtual std::size_t out_dim() const = 0;

  void zero_grad();

 protected:
  /// The backward pass behind backward_batch and backward_params: returns
  /// the per-row input gradients when `input_grad`, an empty Mat
  /// otherwise.
  virtual Mat backward(const Mat& dy, bool input_grad) = 0;
};

/// Fully connected layer with optional activation: y = act(Wx + b).
class Dense : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, Activation act, util::Rng& rng);

  void begin_capture(std::size_t batch) override;
  std::span<const double> capture(std::span<const double> x,
                                  std::size_t row) override;
  void infer_into(std::span<const double> x, std::span<double> y,
                  std::span<double> scratch) const override;
  void sync_inference_cache() override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::size_t in_dim() const override { return w_.cols(); }
  [[nodiscard]] std::size_t out_dim() const override { return w_.rows(); }

 protected:
  Mat backward(const Mat& dy, bool input_grad) override;

 private:
  /// The forward body of one sample: z = Wx + b, then y = act(z). `y` may
  /// be `z`.
  void forward_row(const double* x, double* z, double* y) const;

  Mat w_, dw_;
  Mat b_, db_;
  Activation act_;
  Mat xb_cache_, zb_cache_, yb_cache_;
  Mat wt_cache_;  ///< w_^T; empty until sync_inference_cache()
};

/// 1-D convolution over a scalar sequence (in_channels = 1, stride 1,
/// valid padding), followed by an activation; output is flattened
/// time-major: out[t * filters + f]. This is the temporal unit in
/// Pensieve's original architecture.
class Conv1D : public Layer {
 public:
  Conv1D(std::size_t seq_len, std::size_t filters, std::size_t kernel,
         Activation act, util::Rng& rng);

  void begin_capture(std::size_t batch) override;
  std::span<const double> capture(std::span<const double> x,
                                  std::size_t row) override;
  void infer_into(std::span<const double> x, std::span<double> y,
                  std::span<double> scratch) const override;
  void sync_inference_cache() override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::size_t in_dim() const override { return seq_len_; }
  [[nodiscard]] std::size_t out_dim() const override {
    return out_len_ * filters_;
  }
  [[nodiscard]] std::size_t out_len() const { return out_len_; }

 protected:
  /// dZ once for the whole capture, viewed as (batch * out_len) x filters
  /// (the time-major output layout, one row per (sample, t)); db sums its
  /// rows, dW accumulates dZ^T times an im2col of the captured inputs
  /// through add_matmul_tn — both in the serial (sample, t) order.
  Mat backward(const Mat& dy, bool input_grad) override;

 private:
  /// The forward body of one sample: z written filter-major per t with
  /// the serial accumulation order (bias first, then kernel taps
  /// k-ascending), then y = act(z). `y` may be `z`.
  void forward_row(const double* x, double* z, double* y) const;

  std::size_t seq_len_, filters_, kernel_, out_len_;
  Mat w_, dw_;  // filters x kernel
  Mat b_, db_;  // filters x 1
  Activation act_;
  Mat xb_cache_, zb_cache_, yb_cache_;
  Mat wt_cache_;  ///< w_^T (kernel x filters); empty until synced
};

/// Elman RNN over a scalar sequence; returns the final hidden state.
/// h_t = tanh(Wx * x_t + Wh * h_{t-1} + b). Used by the paper's best
/// Starlink architecture (RNN in place of the 1D-CNN).
class SimpleRnn : public Layer {
 public:
  SimpleRnn(std::size_t seq_len, std::size_t hidden, util::Rng& rng);

  void begin_capture(std::size_t batch) override;
  std::span<const double> capture(std::span<const double> x,
                                  std::size_t row) override;
  void infer_into(std::span<const double> x, std::span<double> y,
                  std::span<double> scratch) const override;
  void sync_inference_cache() override;
  std::vector<ParamRef> params() override;
  /// h_0..h_T, then forward_one's matvec scratch.
  [[nodiscard]] std::size_t infer_scratch() const override {
    return (seq_len_ + 2) * hidden_;
  }
  [[nodiscard]] std::size_t in_dim() const override { return seq_len_; }
  [[nodiscard]] std::size_t out_dim() const override { return hidden_; }

 protected:
  Mat backward(const Mat& dy, bool input_grad) override;

 private:
  /// One sample's recurrence into h_0..h_T (`h`, (seq_len + 1) * hidden
  /// doubles; h_0 = 0). `wh_h` is hidden doubles of scratch.
  void forward_one(const double* x, double* h, double* wh_h) const;

  std::size_t seq_len_, hidden_;
  Mat wx_, dwx_;  // hidden x 1
  Mat wh_, dwh_;  // hidden x hidden
  Mat b_, db_;    // hidden x 1
  Mat xb_cache_;
  Mat hb_cache_;    ///< per captured row: h_0..h_T
  Vec wh_h_;        ///< capture's matvec scratch
  Mat wht_cache_;   ///< wh_^T; empty until synced
};

/// LSTM over a scalar sequence; returns the final hidden state. Used by the
/// paper's best 4G architecture (LSTM in place of the 1D-CNN).
///
/// A step cache holds, per time step, [i, f, g, o, c, tanh c] (hidden
/// doubles each): the gate activations, the cell state and its tanh, so
/// BPTT reads tanh(c) instead of computing it again. h = o * tanh(c) is not
/// stored: the forward writes it where it is read (the next step's input,
/// and h_T into the layer's own output row), and BPTT forms h_{t-1} again
/// as the same product, so every value keeps its bits.
class Lstm : public Layer {
 public:
  Lstm(std::size_t seq_len, std::size_t hidden, util::Rng& rng);

  void begin_capture(std::size_t batch) override;
  std::span<const double> capture(std::span<const double> x,
                                  std::size_t row) override;
  void infer_into(std::span<const double> x, std::span<double> y,
                  std::span<double> scratch) const override;
  void sync_inference_cache() override;
  std::vector<ParamRef> params() override;
  /// A step cache, then forward_one's scratch.
  [[nodiscard]] std::size_t infer_scratch() const override {
    return seq_len_ * step_width() + forward_scratch();
  }
  [[nodiscard]] std::size_t in_dim() const override { return seq_len_; }
  [[nodiscard]] std::size_t out_dim() const override { return hidden_; }

 protected:
  Mat backward(const Mat& dy, bool input_grad) override;

 private:
  /// Doubles one time step occupies in a step cache: the gate activations
  /// i, f, g, o, then the post-step cell c and tanh(c), hidden each.
  [[nodiscard]] std::size_t step_width() const { return 6 * hidden_; }
  /// Doubles of scratch forward_one needs: the gate pre-activations and
  /// the step input [x_t; h_{t-1}].
  [[nodiscard]] std::size_t forward_scratch() const {
    return 5 * hidden_ + 1;
  }

  /// One sample's forward recurrence into `steps` (seq_len * step_width()
  /// doubles); writes h_T into `h_out` (hidden doubles).
  void forward_one(const double* x, double* steps, double* h_out,
                   double* scratch) const;
  /// One sample's BPTT from its step cache; accumulates dw_/db_ and, when
  /// `dx` is non-null, the input gradient. `scratch` holds 4H + 1 doubles;
  /// `dz_rows` (seq_len x 4H) and `input_rows` (seq_len x (1 + H)) take
  /// each step's gate gradient and input for the one dW product.
  void backward_one(const double* x, const double* steps, const double* dy,
                    double* dx, double* scratch, Mat& dz_rows,
                    Mat& input_rows);

  std::size_t seq_len_, hidden_;
  // Gate weights stacked [i; f; g; o]: (4H x (1 + H)) over [x_t, h_{t-1}].
  Mat w_, dw_;
  Mat b_, db_;  // 4H x 1
  Mat xb_cache_;
  Mat steps_cache_;  ///< per captured row: seq_len steps of step_width()
  Mat hb_cache_;     ///< per captured row: h_T, the layer's output
  Vec scratch_;      ///< capture's forward_one scratch
  Mat wt_cache_;     ///< w_^T ((1 + H) x 4H); empty until synced
};

}  // namespace nada::nn
