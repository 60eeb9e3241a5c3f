// Test helper: Adam's update as one scalar loop, kept as the reference
// for nn::Adam, whose per-parameter update is the `adam` entry of the
// kernel table (nn/mat_kernels.h). tests/nn_kernel_test.cpp pins the
// scalar and avx2 kernels to this loop bit for bit over successive steps,
// since the bias correction changes every step.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "nn/layers.h"

namespace nada::test {

class AdamOracle {
 public:
  explicit AdamOracle(double lr = 1e-3, double beta1 = 0.9,
                      double beta2 = 0.999, double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  void step(std::vector<nn::ParamRef> params) {
    if (m_.empty()) {
      m_.resize(params.size());
      v_.resize(params.size());
      for (std::size_t i = 0; i < params.size(); ++i) {
        m_[i].assign(params[i].value->size(), 0.0);
        v_[i].assign(params[i].value->size(), 0.0);
      }
    }
    if (m_.size() != params.size()) {
      throw std::invalid_argument("Adam::step: parameter list changed");
    }
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (std::size_t i = 0; i < params.size(); ++i) {
      auto& value = params[i].value->data();
      auto& grad = params[i].grad->data();
      if (m_[i].size() != value.size()) {
        throw std::invalid_argument("Adam::step: parameter shape changed");
      }
      for (std::size_t j = 0; j < value.size(); ++j) {
        m_[i][j] = beta1_ * m_[i][j] + (1.0 - beta1_) * grad[j];
        v_[i][j] = beta2_ * v_[i][j] + (1.0 - beta2_) * grad[j] * grad[j];
        const double m_hat = m_[i][j] / bc1;
        const double v_hat = v_[i][j] / bc2;
        value[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
        grad[j] = 0.0;
      }
    }
  }

 private:
  double lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<std::vector<double>> m_, v_;  // per-param moments
};

}  // namespace nada::test
