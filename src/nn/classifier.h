// Binary classifiers used by NADA's early-stopping filter.
//
// The paper's "Reward Only" method trains a one-dimensional CNN on the
// training rewards from the first K epochs and predicts whether a design
// will rank among the top performers. "Text Only" embeds the candidate's
// code and feeds an MLP; "Text + Reward" concatenates both feature sets.
// Both network shapes live here; the filtering logic (label smoothing,
// threshold tuning) lives in src/filter.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace nada::nn {

struct ClassifierTrainOptions {
  std::size_t epochs = 60;
  std::size_t batch_size = 16;  ///< must be positive
  double learning_rate = 1e-3;
  double l2 = 1e-4;  ///< weight decay applied through the gradient
};

/// Interface: score in (0, 1), higher = more likely positive.
class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  /// Inference only: implementations must not touch training caches, so a
  /// fitted classifier can be scored through a const reference (and shared
  /// across threads).
  [[nodiscard]] virtual double predict(const Vec& features) const = 0;

  /// Trains with binary cross-entropy, one batched backward pass per
  /// mini-batch. `labels` must be in [0, 1] (soft labels are allowed —
  /// NADA's label-smoothing variant uses them).
  virtual void train(const std::vector<Vec>& features,
                     const std::vector<double>& labels,
                     const ClassifierTrainOptions& options) = 0;

  [[nodiscard]] virtual std::size_t input_dim() const = 0;
};

/// 1D-CNN over a fixed-length series: Conv1D -> ReLU -> global average
/// pooling per filter -> Dense -> Dense(1) -> sigmoid.
class Conv1DClassifier : public BinaryClassifier {
 public:
  Conv1DClassifier(std::size_t seq_len, std::size_t filters,
                   std::size_t kernel, std::size_t hidden, util::Rng& rng);

  double predict(const Vec& features) const override;
  void train(const std::vector<Vec>& features,
             const std::vector<double>& labels,
             const ClassifierTrainOptions& options) override;
  [[nodiscard]] std::size_t input_dim() const override { return seq_len_; }

 private:
  /// Global average pool over time of a time-major conv output, written
  /// into `pooled` (filters doubles).
  void pool(std::span<const double> conv_out, std::span<double> pooled) const;
  /// Captures one sample into cache row `row`; returns its logit.
  double capture_logit(const Vec& x, std::size_t row);
  /// Backpropagates d(loss)/d(logit), one row per captured sample.
  void backward_logits(const Mat& dlogits);

  std::size_t seq_len_, filters_, out_len_;
  Conv1D conv_;
  Dense fc1_;
  Dense fc2_;
  Vec pooled_;  ///< capture_logit's pooled row (fc1_'s input)
  util::Rng rng_;
};

/// Plain MLP classifier for embedding-style inputs.
class MlpClassifier : public BinaryClassifier {
 public:
  MlpClassifier(std::size_t input_dim, std::vector<std::size_t> hidden,
                util::Rng& rng);

  double predict(const Vec& features) const override;
  void train(const std::vector<Vec>& features,
             const std::vector<double>& labels,
             const ClassifierTrainOptions& options) override;
  [[nodiscard]] std::size_t input_dim() const override { return input_dim_; }

 private:
  double capture_logit(const Vec& x, std::size_t row);
  void backward_logits(const Mat& dlogits);

  std::size_t input_dim_;
  std::vector<std::unique_ptr<Dense>> layers_;
  util::Rng rng_;
};

/// Logistic transform.
[[nodiscard]] double sigmoid(double z);

}  // namespace nada::nn
