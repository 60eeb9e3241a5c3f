#include "nn/classifier.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace nada::nn {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

namespace {

/// Shared training loop: BCE loss, Adam, shuffled mini-batches. Each
/// mini-batch is one capture over `layers`: `capture(x, row)` returns the
/// pre-sigmoid logit of one sample captured into `row`, and `backward`
/// takes d(loss)/d(logit) for every captured row at once.
void train_bce(const std::vector<Vec>& features,
               const std::vector<double>& labels,
               const ClassifierTrainOptions& options,
               const std::vector<Layer*>& layers,
               const std::function<double(const Vec&, std::size_t)>& capture,
               const std::function<void(const Mat&)>& backward,
               util::Rng& rng) {
  if (features.size() != labels.size()) {
    throw std::invalid_argument("train_bce: features/labels size mismatch");
  }
  if (features.empty()) {
    throw std::invalid_argument("train_bce: empty training set");
  }
  if (options.batch_size == 0) {
    throw std::invalid_argument("train_bce: batch_size is zero");
  }
  for (double y : labels) {
    if (y < 0.0 || y > 1.0) {
      throw std::invalid_argument("train_bce: label outside [0, 1]");
    }
  }
  std::vector<ParamRef> params;
  for (Layer* layer : layers) {
    for (auto p : layer->params()) params.push_back(p);
  }
  Adam optimizer(options.learning_rate);
  std::vector<std::size_t> order(features.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t begin = 0; begin < order.size();) {
      const std::size_t n = std::min(options.batch_size, order.size() - begin);
      for (Layer* layer : layers) layer->begin_capture(n);
      Mat dlogits(n, 1);
      for (std::size_t row = 0; row < n; ++row) {
        const std::size_t idx = order[begin + row];
        const double p = sigmoid(capture(features[idx], row));
        // d(BCE)/d(logit) = p - y, averaged over a full batch — also on the
        // trailing partial one.
        dlogits(row, 0) =
            (p - labels[idx]) / static_cast<double>(options.batch_size);
      }
      backward(dlogits);
      // Weight decay goes through the gradient of full batches only.
      if (n == options.batch_size && options.l2 > 0.0) {
        for (auto& pr : params) {
          const auto& w = pr.value->data();
          auto& g = pr.grad->data();
          for (std::size_t j = 0; j < w.size(); ++j) {
            g[j] += options.l2 * w[j];
          }
        }
      }
      clip_global_norm(params, 5.0);
      optimizer.step(params);
      begin += n;
    }
  }
}

}  // namespace

// ---- Conv1DClassifier -------------------------------------------------------

Conv1DClassifier::Conv1DClassifier(std::size_t seq_len, std::size_t filters,
                                   std::size_t kernel, std::size_t hidden,
                                   util::Rng& rng)
    : seq_len_(seq_len),
      filters_(filters),
      out_len_(seq_len - kernel + 1),
      conv_(seq_len, filters, kernel, Activation::kRelu, rng),
      fc1_(filters, hidden, Activation::kRelu, rng),
      fc2_(hidden, 1, Activation::kLinear, rng),
      pooled_(filters),
      rng_(rng.fork()) {
  if (kernel > seq_len) {
    throw std::invalid_argument("Conv1DClassifier: kernel > seq_len");
  }
}

void Conv1DClassifier::pool(std::span<const double> conv_out,
                            std::span<double> pooled) const {
  std::fill(pooled.begin(), pooled.end(), 0.0);
  for (std::size_t t = 0; t < out_len_; ++t) {
    for (std::size_t f = 0; f < filters_; ++f) {
      pooled[f] += conv_out[t * filters_ + f];
    }
  }
  for (double& v : pooled) v /= static_cast<double>(out_len_);
}

double Conv1DClassifier::capture_logit(const Vec& x, std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Conv1DClassifier: input size mismatch");
  }
  pool(conv_.capture(x, row), pooled_);
  return fc2_.capture(fc1_.capture(pooled_, row), row)[0];
}

void Conv1DClassifier::backward_logits(const Mat& dlogits) {
  const Mat dpool = fc1_.backward_batch(fc2_.backward_batch(dlogits));
  Mat dconv(dpool.rows(), out_len_ * filters_);
  for (std::size_t n = 0; n < dpool.rows(); ++n) {
    for (std::size_t t = 0; t < out_len_; ++t) {
      for (std::size_t f = 0; f < filters_; ++f) {
        dconv(n, t * filters_ + f) =
            dpool(n, f) / static_cast<double>(out_len_);
      }
    }
  }
  conv_.backward_params(dconv);
}

double Conv1DClassifier::predict(const Vec& features) const {
  if (features.size() != seq_len_) {
    throw std::invalid_argument("Conv1DClassifier: input size mismatch");
  }
  // Inference into local rows, so predict() is const and thread-safe on a
  // fitted model.
  Vec conv_out(conv_.out_dim());
  Vec pooled(filters_);
  Vec hidden(fc1_.out_dim());
  double logit = 0.0;
  conv_.infer_into(features, conv_out, {});
  pool(conv_out, pooled);
  fc1_.infer_into(pooled, hidden, {});
  fc2_.infer_into(hidden, {&logit, 1}, {});
  return sigmoid(logit);
}

void Conv1DClassifier::train(const std::vector<Vec>& features,
                             const std::vector<double>& labels,
                             const ClassifierTrainOptions& options) {
  train_bce(
      features, labels, options, {&conv_, &fc1_, &fc2_},
      [this](const Vec& x, std::size_t row) { return capture_logit(x, row); },
      [this](const Mat& d) { backward_logits(d); }, rng_);
}

// ---- MlpClassifier ----------------------------------------------------------

MlpClassifier::MlpClassifier(std::size_t input_dim,
                             std::vector<std::size_t> hidden, util::Rng& rng)
    : input_dim_(input_dim), rng_(rng.fork()) {
  if (input_dim_ == 0) throw std::invalid_argument("MlpClassifier: dim 0");
  std::size_t in = input_dim_;
  for (std::size_t h : hidden) {
    layers_.push_back(std::make_unique<Dense>(in, h, Activation::kRelu, rng));
    in = h;
  }
  layers_.push_back(std::make_unique<Dense>(in, 1, Activation::kLinear, rng));
}

double MlpClassifier::capture_logit(const Vec& x, std::size_t row) {
  if (x.size() != input_dim_) {
    throw std::invalid_argument("MlpClassifier: input size mismatch");
  }
  std::span<const double> h = x;
  for (auto& layer : layers_) h = layer->capture(h, row);
  return h[0];
}

void MlpClassifier::backward_logits(const Mat& dlogits) {
  Mat d = dlogits;
  for (std::size_t i = layers_.size(); i-- > 1;) {
    d = layers_[i]->backward_batch(d);
  }
  layers_.front()->backward_params(d);  // upstream is the features
}

double MlpClassifier::predict(const Vec& features) const {
  if (features.size() != input_dim_) {
    throw std::invalid_argument("MlpClassifier: input size mismatch");
  }
  // Inference into local rows, so predict() is const and thread-safe.
  Vec h = features;
  for (const auto& layer : layers_) {
    Vec y(layer->out_dim());
    layer->infer_into(h, y, {});
    h = std::move(y);
  }
  return sigmoid(h[0]);
}

void MlpClassifier::train(const std::vector<Vec>& features,
                          const std::vector<double>& labels,
                          const ClassifierTrainOptions& options) {
  std::vector<Layer*> layers;
  for (auto& layer : layers_) layers.push_back(layer.get());
  train_bce(
      features, labels, options, layers,
      [this](const Vec& x, std::size_t row) { return capture_logit(x, row); },
      [this](const Mat& d) { backward_logits(d); }, rng_);
}

}  // namespace nada::nn
