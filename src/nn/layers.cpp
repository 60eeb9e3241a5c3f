#include "nn/layers.h"

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

double activate(Activation a, double z) {
  switch (a) {
    case Activation::kLinear: return z;
    case Activation::kRelu: return z > 0.0 ? z : 0.0;
    case Activation::kLeakyRelu: return z > 0.0 ? z : 0.01 * z;
    case Activation::kTanh: return std::tanh(z);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-z));
    case Activation::kElu: return z > 0.0 ? z : std::expm1(z);
  }
  return z;
}

double activate_grad(Activation a, double z, double y) {
  switch (a) {
    case Activation::kLinear: return 1.0;
    case Activation::kRelu: return z > 0.0 ? 1.0 : 0.0;
    case Activation::kLeakyRelu: return z > 0.0 ? 1.0 : 0.01;
    case Activation::kTanh: return 1.0 - y * y;
    case Activation::kSigmoid: return y * (1.0 - y);
    case Activation::kElu: return z > 0.0 ? 1.0 : y + 1.0;
  }
  return 1.0;
}

namespace {

/// forward_capture's row guard: the caches hold `batch` rows.
void check_capture_row(const char* layer, std::size_t row, std::size_t batch) {
  if (row >= batch) {
    throw std::out_of_range(std::string(layer) + "::forward_capture: row " +
                            std::to_string(row) + " outside a capture of " +
                            std::to_string(batch));
  }
}

}  // namespace

void Layer::zero_grad() {
  for (auto& p : params()) p.grad->zero();
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

Vec Dense::infer(const Vec& x) const {
  if (x.size() != w_.cols()) {
    throw std::invalid_argument("Dense::infer: input size mismatch");
  }
  Vec z;
  if (!wt_cache_.empty()) {
    // Fast path over W^T: z[j] accumulates the k-th product at sweep k —
    // the same k-ascending chain as matvec, with a contiguous inner loop
    // dispatched to the active kernel flavor.
    z.assign(w_.rows(), 0.0);
    active_kernels().wt_axpy(wt_cache_.ptr(), x.data(), z.data(), x.size(),
                             w_.rows());
  } else {
    z = w_.matvec(x);
  }
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = activate(act_, z[i] + b_(i, 0));
  }
  return z;
}

void Dense::sync_inference_cache() { wt_cache_ = w_.transposed(); }

void Dense::begin_capture(std::size_t batch) {
  // Rows are fully overwritten by forward_capture, so the caches are only
  // reallocated when the episode length changes.
  if (xb_cache_.rows() != batch || xb_cache_.cols() != w_.cols()) {
    xb_cache_ = Mat(batch, w_.cols());
    zb_cache_ = Mat(batch, w_.rows());
    yb_cache_ = Mat(batch, w_.rows());
  }
}

Vec Dense::forward_capture(const Vec& x, std::size_t row) {
  if (x.size() != w_.cols()) {
    throw std::invalid_argument("Dense::forward_capture: input mismatch");
  }
  check_capture_row("Dense", row, xb_cache_.rows());
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  const std::size_t out = w_.rows();
  const auto zr = zb_cache_.row(row);
  if (!wt_cache_.empty()) {
    std::fill(zr.begin(), zr.end(), 0.0);
    active_kernels().wt_axpy(wt_cache_.ptr(), x.data(), zr.data(), x.size(),
                             out);
  } else {
    const Vec z = w_.matvec(x);
    std::copy(z.begin(), z.end(), zr.begin());
  }
  Vec y(out);
  const auto yr = yb_cache_.row(row);
  for (std::size_t i = 0; i < out; ++i) {
    zr[i] += b_(i, 0);
    y[i] = activate(act_, zr[i]);
    yr[i] = y[i];
  }
  return y;
}

Mat Dense::backward_batch(const Mat& dy) {
  if (dy.rows() != zb_cache_.rows() || dy.cols() != w_.rows()) {
    throw std::invalid_argument("Dense::backward_batch: grad shape mismatch");
  }
  Mat dz(dy.rows(), dy.cols());
  for (std::size_t j = 0; j < dz.size(); ++j) {
    dz.data()[j] =
        dy.data()[j] * activate_grad(act_, zb_cache_.data()[j],
                                     yb_cache_.data()[j]);
  }
  add_matmul_tn(dw_, dz, xb_cache_);
  for (std::size_t i = 0; i < dy.cols(); ++i) {
    double acc = db_(i, 0);
    for (std::size_t n = 0; n < dy.rows(); ++n) acc += dz(n, i);
    db_(i, 0) = acc;
  }
  return matmul(dz, w_);
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

void Conv1D::conv_one(const double* x, double* z) const {
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
    return;
  }
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

void Conv1D::sync_inference_cache() { wt_cache_ = w_.transposed(); }

void Conv1D::begin_capture(std::size_t batch) {
  if (xb_cache_.rows() != batch || xb_cache_.cols() != seq_len_) {
    xb_cache_ = Mat(batch, seq_len_);
    zb_cache_ = Mat(batch, out_len_ * filters_);
    yb_cache_ = Mat(batch, out_len_ * filters_);
  }
}

Vec Conv1D::forward_capture(const Vec& x, std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Conv1D::forward_capture: input mismatch");
  }
  check_capture_row("Conv1D", row, xb_cache_.rows());
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  const auto zr = zb_cache_.row(row);
  conv_one(x.data(), zr.data());
  Vec y(out_len_ * filters_);
  const auto yr = yb_cache_.row(row);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = activate(act_, zr[i]);
    yr[i] = y[i];
  }
  return y;
}

Vec Conv1D::infer(const Vec& x) const {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Conv1D::infer: input size mismatch");
  }
  Vec y(out_len_ * filters_);
  conv_one(x.data(), y.data());
  for (double& v : y) v = activate(act_, v);
  return y;
}

Mat Conv1D::backward_batch(const Mat& dy) {
  if (dy.rows() != zb_cache_.rows() || dy.cols() != out_len_ * filters_) {
    throw std::invalid_argument("Conv1D::backward_batch: grad shape mismatch");
  }
  Mat dx(dy.rows(), seq_len_);
  for (std::size_t n = 0; n < dy.rows(); ++n) {
    const auto xr = xb_cache_.row(n);
    const auto dyr = dy.row(n);
    const auto zr = zb_cache_.row(n);
    const auto yr = yb_cache_.row(n);
    const auto dxr = dx.row(n);
    for (std::size_t t = 0; t < out_len_; ++t) {
      for (std::size_t f = 0; f < filters_; ++f) {
        const std::size_t idx = t * filters_ + f;
        const double dz = dyr[idx] * activate_grad(act_, zr[idx], yr[idx]);
        db_(f, 0) += dz;
        for (std::size_t k = 0; k < kernel_; ++k) {
          dw_(f, k) += dz * xr[t + k];
          dxr[t + k] += dz * w_(f, k);
        }
      }
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

Vec SimpleRnn::infer(const Vec& x) const {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("SimpleRnn::infer: input size mismatch");
  }
  Vec h(hidden_, 0.0);
  Vec h_next(hidden_);
  for (std::size_t t = 0; t < seq_len_; ++t) {
    const Vec wh_h = wh_.matvec(h);
    for (std::size_t i = 0; i < hidden_; ++i) {
      h_next[i] = std::tanh(wx_(i, 0) * x[t] + wh_h[i] + b_(i, 0));
    }
    std::swap(h, h_next);
  }
  return h;
}

void SimpleRnn::begin_capture(std::size_t batch) {
  if (xb_cache_.rows() != batch || xb_cache_.cols() != seq_len_) {
    xb_cache_ = Mat(batch, seq_len_);
  }
  hb_cache_.resize(batch);  // per-row recurrences overwrite their slot
}

Vec SimpleRnn::forward_capture(const Vec& x, std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("SimpleRnn::forward_capture: input mismatch");
  }
  check_capture_row("SimpleRnn", row, xb_cache_.rows());
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  auto& h_cache = hb_cache_[row];
  h_cache.assign(seq_len_ + 1, Vec(hidden_, 0.0));
  for (std::size_t t = 0; t < seq_len_; ++t) {
    const Vec wh_h = wh_.matvec(h_cache[t]);
    for (std::size_t i = 0; i < hidden_; ++i) {
      h_cache[t + 1][i] = std::tanh(wx_(i, 0) * x[t] + wh_h[i] + b_(i, 0));
    }
  }
  return h_cache.back();
}

Mat SimpleRnn::backward_batch(const Mat& dy) {
  if (dy.rows() != xb_cache_.rows() || dy.cols() != hidden_) {
    throw std::invalid_argument("SimpleRnn::backward_batch: grad mismatch");
  }
  Mat dx(dy.rows(), seq_len_);
  for (std::size_t n = 0; n < dy.rows(); ++n) {
    const auto xr = xb_cache_.row(n);
    const auto dxr = dx.row(n);
    const auto& h_cache = hb_cache_[n];
    Vec dh(dy.row(n).begin(), dy.row(n).end());
    for (std::size_t t = seq_len_; t-- > 0;) {
      const Vec& h_next = h_cache[t + 1];
      Vec dz(hidden_);
      for (std::size_t i = 0; i < hidden_; ++i) {
        dz[i] = dh[i] * (1.0 - h_next[i] * h_next[i]);  // tanh'
      }
      for (std::size_t i = 0; i < hidden_; ++i) {
        dwx_(i, 0) += dz[i] * xr[t];
        db_(i, 0) += dz[i];
        dxr[t] += dz[i] * wx_(i, 0);
      }
      dwh_.add_outer(dz, h_cache[t]);
      dh = wh_.matvec_transposed(dz);
    }
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

Vec Lstm::forward_one(std::span<const double> x,
                      std::vector<StepCache>& steps) const {
  steps.clear();
  steps.reserve(seq_len_);
  Vec h(hidden_, 0.0);
  Vec c(hidden_, 0.0);
  for (std::size_t t = 0; t < seq_len_; ++t) {
    // z = W [x_t; h_{t-1}] + b, split into i, f, g, o.
    Vec input(1 + hidden_);
    input[0] = x[t];
    for (std::size_t i = 0; i < hidden_; ++i) input[1 + i] = h[i];
    const Vec z = w_.matvec(input);
    StepCache sc;
    sc.i.resize(hidden_);
    sc.f.resize(hidden_);
    sc.g.resize(hidden_);
    sc.o.resize(hidden_);
    sc.c.resize(hidden_);
    sc.h.resize(hidden_);
    for (std::size_t i = 0; i < hidden_; ++i) {
      sc.i[i] = activate(Activation::kSigmoid, z[i] + b_(i, 0));
      sc.f[i] = activate(Activation::kSigmoid,
                         z[hidden_ + i] + b_(hidden_ + i, 0));
      sc.g[i] = std::tanh(z[2 * hidden_ + i] + b_(2 * hidden_ + i, 0));
      sc.o[i] = activate(Activation::kSigmoid,
                         z[3 * hidden_ + i] + b_(3 * hidden_ + i, 0));
      sc.c[i] = sc.f[i] * c[i] + sc.i[i] * sc.g[i];
      sc.h[i] = sc.o[i] * std::tanh(sc.c[i]);
    }
    h = sc.h;
    c = sc.c;
    steps.push_back(std::move(sc));
  }
  return h;
}

void Lstm::backward_one(std::span<const double> x,
                        const std::vector<StepCache>& steps, const Vec& dy,
                        std::span<double> dx) {
  Vec dh = dy;
  Vec dc(hidden_, 0.0);
  const Vec zeros(hidden_, 0.0);
  for (std::size_t t = seq_len_; t-- > 0;) {
    const StepCache& sc = steps[t];
    const Vec& c_prev = t > 0 ? steps[t - 1].c : zeros;
    const Vec& h_prev = t > 0 ? steps[t - 1].h : zeros;
    Vec dz(4 * hidden_);
    for (std::size_t i = 0; i < hidden_; ++i) {
      const double tanh_c = std::tanh(sc.c[i]);
      const double do_ = dh[i] * tanh_c;
      const double dct = dh[i] * sc.o[i] * (1.0 - tanh_c * tanh_c) + dc[i];
      const double di = dct * sc.g[i];
      const double df = dct * c_prev[i];
      const double dg = dct * sc.i[i];
      dz[i] = di * sc.i[i] * (1.0 - sc.i[i]);
      dz[hidden_ + i] = df * sc.f[i] * (1.0 - sc.f[i]);
      dz[2 * hidden_ + i] = dg * (1.0 - sc.g[i] * sc.g[i]);
      dz[3 * hidden_ + i] = do_ * sc.o[i] * (1.0 - sc.o[i]);
      dc[i] = dct * sc.f[i];
    }
    Vec input(1 + hidden_);
    input[0] = x[t];
    for (std::size_t i = 0; i < hidden_; ++i) input[1 + i] = h_prev[i];
    dw_.add_outer(dz, input);
    for (std::size_t i = 0; i < 4 * hidden_; ++i) db_(i, 0) += dz[i];
    const Vec dinput = w_.matvec_transposed(dz);
    dx[t] += dinput[0];
    dh.assign(dinput.begin() + 1, dinput.end());
  }
}

Vec Lstm::infer(const Vec& x) const {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Lstm::infer: input size mismatch");
  }
  std::vector<StepCache> steps;
  return forward_one(x, steps);
}

void Lstm::begin_capture(std::size_t batch) {
  if (xb_cache_.rows() != batch || xb_cache_.cols() != seq_len_) {
    xb_cache_ = Mat(batch, seq_len_);
  }
  steps_batch_.resize(batch);  // forward_one clears its slot per row
}

Vec Lstm::forward_capture(const Vec& x, std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Lstm::forward_capture: input mismatch");
  }
  check_capture_row("Lstm", row, xb_cache_.rows());
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  return forward_one(x, steps_batch_[row]);
}

Mat Lstm::backward_batch(const Mat& dy) {
  if (dy.rows() != xb_cache_.rows() || dy.cols() != hidden_) {
    throw std::invalid_argument("Lstm::backward_batch: grad shape mismatch");
  }
  Mat dx(dy.rows(), seq_len_);
  for (std::size_t n = 0; n < dy.rows(); ++n) {
    const Vec dyn(dy.row(n).begin(), dy.row(n).end());
    backward_one(xb_cache_.row(n), steps_batch_[n], dyn, dx.row(n));
  }
  return dx;
}

std::vector<ParamRef> Lstm::params() {
  return {{&w_, &dw_}, {&b_, &db_}};
}

}  // namespace nada::nn
