// First-order optimizers over a network's parameter list.
//
// Adam drives the actor-critic training (stable at the small batch sizes
// A2C produces); RMSProp matches Pensieve's original choice and is kept for
// fidelity experiments. Both operate on the ParamRef list a network
// exposes, keyed positionally, so the same optimizer instance must be used
// with the same network for its whole lifetime.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layers.h"

namespace nada::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies accumulated gradients and zeroes them.
  virtual void step(const std::vector<ParamRef>& params) = 0;

  /// Clips the global gradient norm to `max_norm` before stepping.
  static void clip_global_norm(const std::vector<ParamRef>& params,
                               double max_norm);
};

/// Adam; each parameter's update is the `adam` kernel of the active flavor
/// (nn/mat_kernels.h), bit-identical across scalar and avx2.
class Adam : public Optimizer {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);

  void step(const std::vector<ParamRef>& params) override;

  [[nodiscard]] double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

 private:
  double lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<std::vector<double>> m_, v_;  // per-param moments
};

class RmsProp : public Optimizer {
 public:
  explicit RmsProp(double lr = 1e-3, double decay = 0.99, double eps = 1e-6);

  void step(const std::vector<ParamRef>& params) override;

 private:
  double lr_, decay_, eps_;
  std::vector<std::vector<double>> cache_;
};

}  // namespace nada::nn
