#include "nn/optimizer.h"

#include <cmath>
#include <stdexcept>

#include "nn/mat_kernels.h"

namespace nada::nn {

void Optimizer::clip_global_norm(const std::vector<ParamRef>& params,
                                 double max_norm) {
  if (max_norm <= 0.0) {
    throw std::invalid_argument("clip_global_norm: max_norm <= 0");
  }
  double total = 0.0;
  for (const auto& p : params) {
    for (double g : p.grad->data()) total += g * g;
  }
  total = std::sqrt(total);
  if (total <= max_norm) return;
  const double scale = max_norm / total;
  for (const auto& p : params) {
    for (double& g : p.grad->data()) g *= scale;
  }
}

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

void Adam::step(const std::vector<ParamRef>& params) {
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
  const AdamCoeffs coeffs{lr_,
                          beta1_,
                          beta2_,
                          eps_,
                          1.0 - std::pow(beta1_, static_cast<double>(t_)),
                          1.0 - std::pow(beta2_, static_cast<double>(t_))};
  const KernelTable& kernels = active_kernels();
  for (std::size_t i = 0; i < params.size(); ++i) {
    Mat& value = *params[i].value;
    if (m_[i].size() != value.size() ||
        params[i].grad->size() != value.size()) {
      throw std::invalid_argument("Adam::step: parameter shape changed");
    }
    kernels.adam(value.ptr(), params[i].grad->ptr(), m_[i].data(),
                 v_[i].data(), value.size(), coeffs);
  }
}

RmsProp::RmsProp(double lr, double decay, double eps)
    : lr_(lr), decay_(decay), eps_(eps) {}

void RmsProp::step(const std::vector<ParamRef>& params) {
  if (cache_.empty()) {
    cache_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      cache_[i].assign(params[i].value->size(), 0.0);
    }
  }
  if (cache_.size() != params.size()) {
    throw std::invalid_argument("RmsProp::step: parameter list changed");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& value = params[i].value->data();
    auto& grad = params[i].grad->data();
    for (std::size_t j = 0; j < value.size(); ++j) {
      cache_[i][j] = decay_ * cache_[i][j] + (1.0 - decay_) * grad[j] * grad[j];
      value[j] -= lr_ * grad[j] / (std::sqrt(cache_[i][j]) + eps_);
      grad[j] = 0.0;
    }
  }
}

}  // namespace nada::nn
