// First-order optimization over a network's parameter list.
//
// Adam drives the actor-critic training (stable at the small batch sizes
// A2C produces). It operates on the ParamRef list a network exposes, keyed
// positionally, so the same Adam instance must be used with the same
// network for its whole lifetime.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layers.h"

namespace nada::nn {

/// Scales every gradient so their global L2 norm is at most `max_norm`;
/// call before stepping. Throws std::invalid_argument if max_norm <= 0.
void clip_global_norm(const std::vector<ParamRef>& params, double max_norm);

/// Adam; each parameter's update is the `adam` kernel of the active flavor
/// (nn/mat_kernels.h), bit-identical across scalar and avx2.
class Adam {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);

  /// Applies accumulated gradients and zeroes them.
  void step(const std::vector<ParamRef>& params);

 private:
  double lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<std::vector<double>> m_, v_;  // per-param moments
};

}  // namespace nada::nn
