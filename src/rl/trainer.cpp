#include "rl/trainer.h"

#include <algorithm>
#include <cmath>

#include "nn/mat.h"
#include "util/stats.h"

namespace nada::rl {
namespace {

/// Weight of the critic loss against the policy loss.
constexpr double kCriticWeight = 0.5;
/// Huber transition point of the critic loss, in scaled-return units.
constexpr double kHuberDelta = 1.0;

}  // namespace

double evaluate_agent(PolicyAgent& agent, const env::TaskDomain& domain,
                      std::span<const std::size_t> indices,
                      env::Fidelity fidelity, std::uint64_t eval_seed) {
  util::Rng eval_rng(eval_seed);
  util::RunningStats step_rewards;
  for (std::size_t idx : indices) {
    const auto episode = domain.start_eval_episode(idx, fidelity, eval_rng);
    const dsl::Bindings& obs = episode->reset();
    while (!episode->done()) {
      const auto decision = agent.decide(obs, /*sample=*/false, eval_rng);
      step_rewards.add(episode->step(decision.action).reward);
    }
  }
  return step_rewards.mean();
}

double evaluate_agent(PolicyAgent& agent, const env::TaskDomain& domain,
                      env::Fidelity fidelity, std::uint64_t eval_seed) {
  return evaluate_agent(agent, domain,
                        eval_trace_indices(domain.num_eval_units(), 0),
                        fidelity, eval_seed);
}

std::vector<std::size_t> eval_trace_indices(std::size_t num_traces,
                                            std::size_t cap) {
  if (cap == 0 || cap >= num_traces) {
    std::vector<std::size_t> all(num_traces);
    for (std::size_t i = 0; i < num_traces; ++i) all[i] = i;
    return all;
  }
  // Even stride across the whole split: index j -> floor(j * n / cap).
  // Indices are strictly increasing (cap < n), so no trace repeats.
  std::vector<std::size_t> picked(cap);
  for (std::size_t j = 0; j < cap; ++j) {
    picked[j] = j * num_traces / cap;
  }
  return picked;
}

std::vector<double> discounted_returns(std::span<const double> rewards,
                                       double reward_scale, double gamma) {
  std::vector<double> returns(rewards.size());
  double running = 0.0;
  for (std::size_t t = rewards.size(); t-- > 0;) {
    running = rewards[t] / reward_scale + gamma * running;
    returns[t] = running;
  }
  return returns;
}

double a2c_step_gradient(const nn::Vec& probs, std::size_t action,
                         double advantage, double step_return, double value,
                         double entropy_weight, double scale,
                         std::span<double> dlogits) {
  const double ent = nn::entropy(probs);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const double onehot = i == action ? 1.0 : 0.0;
    const double policy_grad = advantage * (probs[i] - onehot);
    const double entropy_grad =
        entropy_weight * probs[i] *
        (std::log(std::max(probs[i], 1e-12)) + ent);
    dlogits[i] = (policy_grad + entropy_grad) * scale;
  }
  // Huber (smooth-L1) critic: bounded gradient so early catastrophic
  // returns cannot dominate the update.
  const double value_error =
      std::clamp(value - step_return, -kHuberDelta, kHuberDelta);
  return 2.0 * kCriticWeight * value_error * scale;
}

}  // namespace nada::rl
