#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/mat_kernels.h"

namespace nada::nn {

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::kLinear: return "linear";
    case Activation::kRelu: return "relu";
    case Activation::kLeakyRelu: return "leaky_relu";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kElu: return "elu";
  }
  return "?";
}

namespace {

// One definition of each activation's value f(z) and derivative df(z, y)
// with respect to z, given y = f(z). activate() and activate_grad() pick
// one per element, the row forms once per row.
struct Linear {
  static double f(double z) { return z; }
  static double df(double, double) { return 1.0; }
};
struct Relu {
  static double f(double z) { return z > 0.0 ? z : 0.0; }
  static double df(double z, double) { return z > 0.0 ? 1.0 : 0.0; }
};
struct LeakyRelu {
  static double f(double z) { return z > 0.0 ? z : 0.01 * z; }
  static double df(double z, double) { return z > 0.0 ? 1.0 : 0.01; }
};
struct Tanh {
  static double f(double z) { return std::tanh(z); }
  static double df(double, double y) { return 1.0 - y * y; }
};
struct Sigmoid {
  static double f(double z) { return 1.0 / (1.0 + std::exp(-z)); }
  static double df(double, double y) { return y * (1.0 - y); }
};
struct Elu {
  static double f(double z) { return z > 0.0 ? z : std::expm1(z); }
  static double df(double z, double y) { return z > 0.0 ? 1.0 : y + 1.0; }
};

/// Calls `fn` with the tag of activation `a`; a value outside the enum
/// acts as linear.
template <typename Fn>
decltype(auto) with_activation(Activation a, Fn&& fn) {
  switch (a) {
    case Activation::kLinear: return fn(Linear{});
    case Activation::kRelu: return fn(Relu{});
    case Activation::kLeakyRelu: return fn(LeakyRelu{});
    case Activation::kTanh: return fn(Tanh{});
    case Activation::kSigmoid: return fn(Sigmoid{});
    case Activation::kElu: return fn(Elu{});
  }
  return fn(Linear{});
}

}  // namespace

double activate(Activation a, double z) {
  return with_activation(a, [z](auto act) { return decltype(act)::f(z); });
}

double activate_grad(Activation a, double z, double y) {
  return with_activation(
      a, [z, y](auto act) { return decltype(act)::df(z, y); });
}

void activate_row(Activation a, std::span<const double> z,
                  std::span<double> y) {
  with_activation(a, [&](auto act) {
    for (std::size_t i = 0; i < z.size(); ++i) y[i] = decltype(act)::f(z[i]);
  });
}

void activate_grad_row(Activation a, std::span<const double> dy,
                       std::span<const double> z, std::span<const double> y,
                       std::span<double> dz) {
  with_activation(a, [&](auto act) {
    for (std::size_t i = 0; i < dy.size(); ++i) {
      dz[i] = dy[i] * decltype(act)::df(z[i], y[i]);
    }
  });
}

namespace {

/// capture's row guard: the caches hold `batch` rows.
void check_capture_row(const char* layer, std::size_t row, std::size_t batch) {
  if (row >= batch) {
    throw std::out_of_range(std::string(layer) + "::forward_capture: row " +
                            std::to_string(row) + " outside a capture of " +
                            std::to_string(batch));
  }
}

/// infer_into's guard: `x` holds `in` doubles, `y` `out`, and `scratch` at
/// least `need`.
void check_infer(const char* layer, std::span<const double> x, std::size_t in,
                 std::span<double> y, std::size_t out,
                 std::span<double> scratch, std::size_t need) {
  if (x.size() != in) {
    throw std::invalid_argument(std::string(layer) +
                                "::infer: input size mismatch");
  }
  if (y.size() != out || scratch.size() < need) {
    throw std::invalid_argument(std::string(layer) +
                                "::infer: buffer size mismatch");
  }
}

/// Writes w^T into `wt`, sizing it on the first sync.
void sync_transpose(const Mat& w, Mat& wt) {
  if (wt.empty()) wt = Mat(w.cols(), w.rows());
  transpose(w, wt);
}

}  // namespace

void Layer::zero_grad() {
  for (auto& p : params()) p.grad->zero();
}

Vec Layer::infer(const Vec& x) const {
  Vec y(out_dim());
  Vec scratch(infer_scratch());
  infer_into(x, y, scratch);
  return y;
}

// ---- Dense ----------------------------------------------------------------

Dense::Dense(std::size_t in, std::size_t out, Activation act, util::Rng& rng)
    : w_(out, in), dw_(out, in), b_(out, 1), db_(out, 1), act_(act) {
  if (act == Activation::kTanh || act == Activation::kSigmoid) {
    w_.init_xavier(rng);
  } else {
    w_.init_he(rng);
  }
}

void Dense::forward_row(const double* x, double* z, double* y) const {
  const std::size_t in = w_.cols();
  const std::size_t out = w_.rows();
  if (!wt_cache_.empty()) {
    // Fast path over W^T: z[j] accumulates the k-th product at sweep k —
    // the same k-ascending chain as matvec, with a contiguous inner loop
    // dispatched to the active kernel flavor.
    std::fill(z, z + out, 0.0);
    active_kernels().wt_axpy(wt_cache_.ptr(), x, z, in, out);
  } else {
    w_.matvec({x, in}, {z, out});
  }
  const double* b = b_.ptr();
  for (std::size_t i = 0; i < out; ++i) z[i] += b[i];
  activate_row(act_, {z, out}, {y, out});
}

void Dense::infer_into(std::span<const double> x, std::span<double> y,
                       std::span<double> scratch) const {
  check_infer("Dense", x, w_.cols(), y, w_.rows(), scratch, 0);
  forward_row(x.data(), y.data(), y.data());
}

void Dense::sync_inference_cache() { sync_transpose(w_, wt_cache_); }

void Dense::begin_capture(std::size_t batch) {
  // Rows are fully overwritten by capture, so the caches are only
  // reallocated when the episode length changes.
  if (xb_cache_.rows() != batch || xb_cache_.cols() != w_.cols()) {
    xb_cache_ = Mat(batch, w_.cols());
    zb_cache_ = Mat(batch, w_.rows());
    yb_cache_ = Mat(batch, w_.rows());
  }
}

std::span<const double> Dense::capture(std::span<const double> x,
                                       std::size_t row) {
  if (x.size() != w_.cols()) {
    throw std::invalid_argument("Dense::forward_capture: input mismatch");
  }
  check_capture_row("Dense", row, xb_cache_.rows());
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  const auto y = yb_cache_.row(row);
  forward_row(x.data(), zb_cache_.row(row).data(), y.data());
  return y;
}

Mat Dense::backward(const Mat& dy, bool input_grad) {
  if (dy.rows() != zb_cache_.rows() || dy.cols() != w_.rows()) {
    throw std::invalid_argument("Dense::backward_batch: grad shape mismatch");
  }
  Mat dz(dy.rows(), dy.cols());
  activate_grad_row(act_, dy.data(), zb_cache_.data(), yb_cache_.data(),
                    dz.data());
  add_matmul_tn(dw_, dz, xb_cache_);
  for (std::size_t i = 0; i < dy.cols(); ++i) {
    double acc = db_(i, 0);
    for (std::size_t n = 0; n < dy.rows(); ++n) acc += dz(n, i);
    db_(i, 0) = acc;
  }
  return input_grad ? matmul(dz, w_) : Mat();
}

std::vector<ParamRef> Dense::params() {
  return {{&w_, &dw_}, {&b_, &db_}};
}

// ---- Conv1D ---------------------------------------------------------------

Conv1D::Conv1D(std::size_t seq_len, std::size_t filters, std::size_t kernel,
               Activation act, util::Rng& rng)
    : seq_len_(seq_len),
      filters_(filters),
      kernel_(kernel),
      out_len_(0),
      w_(filters, kernel),
      dw_(filters, kernel),
      b_(filters, 1),
      db_(filters, 1),
      act_(act) {
  if (kernel_ == 0 || kernel_ > seq_len_) {
    throw std::invalid_argument("Conv1D: kernel must be in [1, seq_len]");
  }
  out_len_ = seq_len_ - kernel_ + 1;
  if (act == Activation::kTanh || act == Activation::kSigmoid) {
    w_.init_xavier(rng);
  } else {
    w_.init_he(rng);
  }
}

void Conv1D::forward_row(const double* x, double* z, double* y) const {
  if (!wt_cache_.empty()) {
    // Vectorized form over W^T: initialize with the bias, then add the
    // kernel taps k-ascending — the identical per-element chain as the
    // f-major loops below, dispatched to the active kernel flavor.
    const KernelTable& kernels = active_kernels();
    for (std::size_t t = 0; t < out_len_; ++t) {
      double* zt = z + t * filters_;
      for (std::size_t f = 0; f < filters_; ++f) zt[f] = b_(f, 0);
      kernels.wt_axpy(wt_cache_.ptr(), x + t, zt, kernel_, filters_);
    }
  } else {
    for (std::size_t t = 0; t < out_len_; ++t) {
      for (std::size_t f = 0; f < filters_; ++f) {
        double acc = b_(f, 0);
        for (std::size_t k = 0; k < kernel_; ++k) {
          acc += w_(f, k) * x[t + k];
        }
        z[t * filters_ + f] = acc;
      }
    }
  }
  activate_row(act_, {z, out_dim()}, {y, out_dim()});
}

void Conv1D::sync_inference_cache() { sync_transpose(w_, wt_cache_); }

void Conv1D::begin_capture(std::size_t batch) {
  if (xb_cache_.rows() != batch || xb_cache_.cols() != seq_len_) {
    xb_cache_ = Mat(batch, seq_len_);
    zb_cache_ = Mat(batch, out_len_ * filters_);
    yb_cache_ = Mat(batch, out_len_ * filters_);
  }
}

std::span<const double> Conv1D::capture(std::span<const double> x,
                                        std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Conv1D::forward_capture: input mismatch");
  }
  check_capture_row("Conv1D", row, xb_cache_.rows());
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  const auto y = yb_cache_.row(row);
  forward_row(x.data(), zb_cache_.row(row).data(), y.data());
  return y;
}

void Conv1D::infer_into(std::span<const double> x, std::span<double> y,
                        std::span<double> scratch) const {
  check_infer("Conv1D", x, seq_len_, y, out_dim(), scratch, 0);
  forward_row(x.data(), y.data(), y.data());
}

Mat Conv1D::backward(const Mat& dy, bool input_grad) {
  if (dy.rows() != zb_cache_.rows() || dy.cols() != out_len_ * filters_) {
    throw std::invalid_argument("Conv1D::backward_batch: grad shape mismatch");
  }
  const std::size_t batch = dy.rows();
  const std::size_t rows = batch * out_len_;  // one per (sample, t)
  Mat dz(rows, filters_);
  activate_grad_row(act_, dy.data(), zb_cache_.data(), yb_cache_.data(),
                    dz.data());
  double* db = db_.ptr();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* dz_row = dz.ptr() + r * filters_;
    for (std::size_t f = 0; f < filters_; ++f) db[f] += dz_row[f];
  }
  // im2col: row (n, t) holds the kernel window x_n[t .. t + kernel).
  Mat windows(rows, kernel_);
  for (std::size_t n = 0; n < batch; ++n) {
    const double* x = xb_cache_.ptr() + n * seq_len_;
    for (std::size_t t = 0; t < out_len_; ++t) {
      std::copy(x + t, x + t + kernel_,
                windows.row(n * out_len_ + t).begin());
    }
  }
  add_matmul_tn(dw_, dz, windows);
  if (!input_grad) return {};
  // dx_n[t + k] += dz(n, t, f) * W(f, k), t ascending then f ascending:
  // per (n, t), the sweep over W's rows with the taps as output columns.
  Mat dx(batch, seq_len_);
  const KernelTable& kernels = active_kernels();
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t t = 0; t < out_len_; ++t) {
      kernels.wt_axpy(w_.ptr(), dz.ptr() + (n * out_len_ + t) * filters_,
                      dx.ptr() + n * seq_len_ + t, filters_, kernel_);
    }
  }
  return dx;
}

std::vector<ParamRef> Conv1D::params() {
  return {{&w_, &dw_}, {&b_, &db_}};
}

// ---- SimpleRnn -------------------------------------------------------------

SimpleRnn::SimpleRnn(std::size_t seq_len, std::size_t hidden, util::Rng& rng)
    : seq_len_(seq_len),
      hidden_(hidden),
      wx_(hidden, 1),
      dwx_(hidden, 1),
      wh_(hidden, hidden),
      dwh_(hidden, hidden),
      b_(hidden, 1),
      db_(hidden, 1) {
  wx_.init_xavier(rng);
  wh_.init_xavier(rng);
}

void SimpleRnn::forward_one(const double* x, double* h, double* wh_h) const {
  std::fill(h, h + hidden_, 0.0);
  for (std::size_t t = 0; t < seq_len_; ++t) {
    const double* h_prev = h + t * hidden_;
    double* h_next = h + (t + 1) * hidden_;
    if (!wht_cache_.empty()) {
      std::fill(wh_h, wh_h + hidden_, 0.0);
      active_kernels().wt_axpy(wht_cache_.ptr(), h_prev, wh_h, hidden_,
                               hidden_);
    } else {
      wh_.matvec({h_prev, hidden_}, {wh_h, hidden_});
    }
    for (std::size_t i = 0; i < hidden_; ++i) {
      h_next[i] = std::tanh(wx_(i, 0) * x[t] + wh_h[i] + b_(i, 0));
    }
  }
}

void SimpleRnn::infer_into(std::span<const double> x, std::span<double> y,
                           std::span<double> scratch) const {
  check_infer("SimpleRnn", x, seq_len_, y, hidden_, scratch,
              infer_scratch());
  double* h = scratch.data();
  forward_one(x.data(), h, h + (seq_len_ + 1) * hidden_);
  std::copy_n(h + seq_len_ * hidden_, hidden_, y.begin());
}

void SimpleRnn::sync_inference_cache() { sync_transpose(wh_, wht_cache_); }

void SimpleRnn::begin_capture(std::size_t batch) {
  // capture overwrites a row's whole recurrence, so the caches are
  // only reallocated when the batch changes.
  if (xb_cache_.rows() != batch || xb_cache_.cols() != seq_len_) {
    xb_cache_ = Mat(batch, seq_len_);
    hb_cache_ = Mat(batch, (seq_len_ + 1) * hidden_);
  }
  wh_h_.resize(hidden_);
}

std::span<const double> SimpleRnn::capture(std::span<const double> x,
                                           std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("SimpleRnn::forward_capture: input mismatch");
  }
  check_capture_row("SimpleRnn", row, xb_cache_.rows());
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  double* h = hb_cache_.row(row).data();
  forward_one(x.data(), h, wh_h_.data());
  return {h + seq_len_ * hidden_, hidden_};
}

Mat SimpleRnn::backward(const Mat& dy, bool input_grad) {
  if (dy.rows() != xb_cache_.rows() || dy.cols() != hidden_) {
    throw std::invalid_argument("SimpleRnn::backward_batch: grad mismatch");
  }
  Mat dx = input_grad ? Mat(dy.rows(), seq_len_) : Mat();
  const KernelTable& kernels = active_kernels();
  // dh (the gradient flowing into h_t) and the next dh; one sample's dz
  // and h_t per step, in the serial (t descending) row order.
  Vec scratch(2 * hidden_);
  double* dh = scratch.data();
  double* dh_prev = dh + hidden_;
  Mat dz_rows(seq_len_, hidden_);
  Mat h_rows(seq_len_, hidden_);
  for (std::size_t n = 0; n < dy.rows(); ++n) {
    const auto xr = xb_cache_.row(n);
    const double* h = hb_cache_.row(n).data();
    std::copy(dy.row(n).begin(), dy.row(n).end(), dh);
    for (std::size_t t = seq_len_; t-- > 0;) {
      const double* h_next = h + (t + 1) * hidden_;
      double* dz = dz_rows.row(seq_len_ - 1 - t).data();
      for (std::size_t i = 0; i < hidden_; ++i) {
        dz[i] = dh[i] * (1.0 - h_next[i] * h_next[i]);  // tanh'
      }
      for (std::size_t i = 0; i < hidden_; ++i) {
        dwx_(i, 0) += dz[i] * xr[t];
        db_(i, 0) += dz[i];
      }
      if (input_grad) {
        double& dxt = dx(n, t);
        for (std::size_t i = 0; i < hidden_; ++i) dxt += dz[i] * wx_(i, 0);
      }
      std::copy(h + t * hidden_, h + (t + 1) * hidden_,
                h_rows.row(seq_len_ - 1 - t).begin());
      // dh_{t-1} = Wh^T dz, the sweep over Wh's rows.
      std::fill(dh_prev, dh_prev + hidden_, 0.0);
      kernels.wt_axpy(wh_.ptr(), dz, dh_prev, hidden_, hidden_);
      std::swap(dh, dh_prev);
    }
    // dWh += sum over steps of outer(dz_t, h_t): the per-step add_outer
    // chain as one product.
    add_matmul_tn(dwh_, dz_rows, h_rows);
  }
  return dx;
}

std::vector<ParamRef> SimpleRnn::params() {
  return {{&wx_, &dwx_}, {&wh_, &dwh_}, {&b_, &db_}};
}

// ---- Lstm -------------------------------------------------------------------

Lstm::Lstm(std::size_t seq_len, std::size_t hidden, util::Rng& rng)
    : seq_len_(seq_len),
      hidden_(hidden),
      w_(4 * hidden, 1 + hidden),
      dw_(4 * hidden, 1 + hidden),
      b_(4 * hidden, 1),
      db_(4 * hidden, 1) {
  w_.init_xavier(rng);
  // Forget-gate bias of 1.0, the standard trick for gradient flow early in
  // training.
  for (std::size_t i = 0; i < hidden_; ++i) b_(hidden_ + i, 0) = 1.0;
}

void Lstm::forward_one(const double* x, double* steps,
                       double* scratch) const {
  const std::size_t hh = hidden_;
  double* z = scratch;           // 4H gate pre-activations
  double* input = scratch + 4 * hh;  // [x_t; h_{t-1}]
  for (std::size_t t = 0; t < seq_len_; ++t) {
    double* step = steps + t * step_width();
    const double* prev = t > 0 ? step - step_width() : nullptr;
    // z = W [x_t; h_{t-1}] + b, split into i, f, g, o.
    input[0] = x[t];
    for (std::size_t i = 0; i < hh; ++i) {
      input[1 + i] = prev != nullptr ? prev[5 * hh + i] : 0.0;
    }
    if (!wt_cache_.empty()) {
      std::fill(z, z + 4 * hh, 0.0);
      active_kernels().wt_axpy(wt_cache_.ptr(), input, z, 1 + hh, 4 * hh);
    } else {
      w_.matvec({input, 1 + hh}, {z, 4 * hh});
    }
    double* gi = step;
    double* gf = step + hh;
    double* gg = step + 2 * hh;
    double* go = step + 3 * hh;
    double* c = step + 4 * hh;
    double* h = step + 5 * hh;
    for (std::size_t i = 0; i < hh; ++i) {
      gi[i] = Sigmoid::f(z[i] + b_(i, 0));
      gf[i] = Sigmoid::f(z[hh + i] + b_(hh + i, 0));
      gg[i] = std::tanh(z[2 * hh + i] + b_(2 * hh + i, 0));
      go[i] = Sigmoid::f(z[3 * hh + i] + b_(3 * hh + i, 0));
      const double c_prev = prev != nullptr ? prev[4 * hh + i] : 0.0;
      c[i] = gf[i] * c_prev + gi[i] * gg[i];
      h[i] = go[i] * std::tanh(c[i]);
    }
  }
}

void Lstm::backward_one(const double* x, const double* steps,
                        const double* dy, double* dx, double* scratch,
                        Mat& dz_rows, Mat& input_rows) {
  const std::size_t hh = hidden_;
  double* dh = scratch;          // H
  double* dc = dh + hh;          // H
  double* zeros = dc + hh;       // H: c_0 and h_0
  double* dinput = zeros + hh;   // 1 + H
  std::copy(dy, dy + hh, dh);
  std::fill(dc, dc + hh, 0.0);
  std::fill(zeros, zeros + hh, 0.0);
  const KernelTable& kernels = active_kernels();
  for (std::size_t t = seq_len_; t-- > 0;) {
    const double* step = steps + t * step_width();
    const double* si = step;
    const double* sf = step + hh;
    const double* sg = step + 2 * hh;
    const double* so = step + 3 * hh;
    const double* sc = step + 4 * hh;
    const double* prev = t > 0 ? step - step_width() : nullptr;
    const double* c_prev = prev != nullptr ? prev + 4 * hh : zeros;
    const double* h_prev = prev != nullptr ? prev + 5 * hh : zeros;
    // Row seq_len - 1 - t: the rows run in the serial (t descending) order.
    double* dz = dz_rows.row(seq_len_ - 1 - t).data();
    double* input = input_rows.row(seq_len_ - 1 - t).data();
    for (std::size_t i = 0; i < hh; ++i) {
      const double tanh_c = std::tanh(sc[i]);
      const double do_ = dh[i] * tanh_c;
      const double dct = dh[i] * so[i] * (1.0 - tanh_c * tanh_c) + dc[i];
      const double di = dct * sg[i];
      const double df = dct * c_prev[i];
      const double dg = dct * si[i];
      dz[i] = di * si[i] * (1.0 - si[i]);
      dz[hh + i] = df * sf[i] * (1.0 - sf[i]);
      dz[2 * hh + i] = dg * (1.0 - sg[i] * sg[i]);
      dz[3 * hh + i] = do_ * so[i] * (1.0 - so[i]);
      dc[i] = dct * sf[i];
    }
    input[0] = x[t];
    std::copy(h_prev, h_prev + hh, input + 1);
    for (std::size_t i = 0; i < 4 * hh; ++i) db_(i, 0) += dz[i];
    // [dx_t; dh_{t-1}] = W^T dz, the sweep over W's rows.
    std::fill(dinput, dinput + 1 + hh, 0.0);
    kernels.wt_axpy(w_.ptr(), dz, dinput, 4 * hh, 1 + hh);
    if (dx != nullptr) dx[t] += dinput[0];
    std::copy(dinput + 1, dinput + 1 + hh, dh);
  }
  // dW += sum over steps of outer(dz_t, [x_t; h_{t-1}]), t descending: the
  // per-step add_outer chain as one product.
  add_matmul_tn(dw_, dz_rows, input_rows);
}

void Lstm::infer_into(std::span<const double> x, std::span<double> y,
                      std::span<double> scratch) const {
  check_infer("Lstm", x, seq_len_, y, hidden_, scratch, infer_scratch());
  double* steps = scratch.data();
  forward_one(x.data(), steps, steps + seq_len_ * step_width());
  std::copy_n(steps + (seq_len_ - 1) * step_width() + 5 * hidden_, hidden_,
              y.begin());
}

void Lstm::sync_inference_cache() { sync_transpose(w_, wt_cache_); }

void Lstm::begin_capture(std::size_t batch) {
  // capture overwrites a row's whole step cache, so the caches are
  // only reallocated when the batch changes.
  if (xb_cache_.rows() != batch || xb_cache_.cols() != seq_len_) {
    xb_cache_ = Mat(batch, seq_len_);
    steps_cache_ = Mat(batch, seq_len_ * step_width());
  }
  scratch_.resize(forward_scratch());
}

std::span<const double> Lstm::capture(std::span<const double> x,
                                      std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Lstm::forward_capture: input mismatch");
  }
  check_capture_row("Lstm", row, xb_cache_.rows());
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  double* steps = steps_cache_.row(row).data();
  forward_one(x.data(), steps, scratch_.data());
  return {steps + (seq_len_ - 1) * step_width() + 5 * hidden_, hidden_};
}

Mat Lstm::backward(const Mat& dy, bool input_grad) {
  if (dy.rows() != xb_cache_.rows() || dy.cols() != hidden_) {
    throw std::invalid_argument("Lstm::backward_batch: grad shape mismatch");
  }
  Mat dx = input_grad ? Mat(dy.rows(), seq_len_) : Mat();
  Vec scratch(4 * hidden_ + 1);
  Mat dz_rows(seq_len_, 4 * hidden_);
  Mat input_rows(seq_len_, 1 + hidden_);
  for (std::size_t n = 0; n < dy.rows(); ++n) {
    backward_one(xb_cache_.row(n).data(), steps_cache_.row(n).data(),
                 dy.row(n).data(), input_grad ? dx.row(n).data() : nullptr,
                 scratch.data(), dz_rows, input_rows);
  }
  return dx;
}

std::vector<ParamRef> Lstm::params() {
  return {{&w_, &dw_}, {&b_, &db_}};
}

}  // namespace nada::nn
