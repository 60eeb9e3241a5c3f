#include "rl/trainer.h"

#include <algorithm>
#include <cmath>

#include "nn/optimizer.h"
#include "util/stats.h"

namespace nada::rl {

double evaluate_agent(PolicyAgent& agent, const env::TaskDomain& domain,
                      std::span<const std::size_t> indices,
                      env::Fidelity fidelity, std::uint64_t eval_seed) {
  util::Rng eval_rng(eval_seed);
  util::RunningStats step_rewards;
  for (std::size_t idx : indices) {
    const auto episode = domain.start_eval_episode(idx, fidelity, eval_rng);
    dsl::Bindings obs = episode->reset();
    while (!episode->done()) {
      const auto decision = agent.decide(obs, /*sample=*/false, eval_rng);
      env::DomainStep step = episode->step(decision.action);
      step_rewards.add(step.reward);
      obs = std::move(step.observation);
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

double resolve_reward_scale(const TrainConfig& config,
                            const env::TaskDomain& domain) {
  return config.reward_scale > 0.0 ? config.reward_scale
                                   : domain.reward_scale_hint();
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

void condition_advantages(const TrainConfig& config,
                          std::vector<double>& advantages) {
  if (config.normalize_advantages && advantages.size() > 1) {
    const double mean_adv = util::mean(advantages);
    const double sd = std::max(util::stddev(advantages), 1e-6);
    for (double& a : advantages) a = (a - mean_adv) / sd;
  }
  if (config.advantage_clip > 0.0) {
    for (double& a : advantages) {
      a = std::clamp(a, -config.advantage_clip, config.advantage_clip);
    }
  }
}

double a2c_step_gradient(const TrainConfig& config, const nn::Vec& probs,
                         std::size_t action, double advantage,
                         double step_return, double value,
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
      std::clamp(value - step_return, -config.huber_delta,
                 config.huber_delta);
  return 2.0 * config.critic_weight * value_error * scale;
}

Trainer::Trainer(const env::TaskDomain& domain, TrainConfig config,
                 std::uint64_t seed)
    : domain_(&domain), config_(config), seed_(seed), rng_(seed) {
  if (config_.epochs == 0) {
    throw std::invalid_argument("Trainer: zero epochs");
  }
  if (config_.test_interval == 0) {
    throw std::invalid_argument("Trainer: zero test interval");
  }
  eval_indices_ =
      eval_trace_indices(domain_->num_eval_units(), config_.max_eval_traces);
}

double Trainer::checkpoint_eval(PolicyAgent& agent) const {
  return evaluate_agent(agent, *domain_, eval_indices_, config_.fidelity,
                        seed_ ^ 0x5eedf00d);
}

void Trainer::run_epoch(PolicyAgent& agent, nn::Adam& optimizer,
                        double entropy_weight, TrainResult& result) {
  const auto episode =
      domain_->start_train_episode(config_.fidelity, rng_);

  struct Step {
    dsl::Bindings obs;
    std::size_t action = 0;
    double reward = 0.0;
    double value = 0.0;
  };
  std::vector<Step> steps;
  steps.reserve(domain_->episode_length());

  dsl::Bindings obs = episode->reset();
  while (!episode->done()) {
    const auto decision = agent.decide(obs, /*sample=*/true, rng_);
    env::DomainStep sr = episode->step(decision.action);
    steps.push_back(
        Step{std::move(obs), decision.action, sr.reward, decision.value});
    obs = std::move(sr.observation);
  }

  // Discounted returns over scaled rewards (see TrainConfig::reward_scale).
  const double reward_scale = resolve_reward_scale(config_, *domain_);
  std::vector<double> rewards(steps.size());
  for (std::size_t t = 0; t < steps.size(); ++t) rewards[t] = steps[t].reward;
  const std::vector<double> returns =
      discounted_returns(rewards, reward_scale, config_.gamma);

  // First pass: fresh values for the advantage estimates.
  std::vector<double> advantages(steps.size());
  std::vector<dsl::StateMatrix> matrices;
  matrices.reserve(steps.size());
  for (std::size_t t = 0; t < steps.size(); ++t) {
    matrices.push_back(agent.eval_state(steps[t].obs));
    const auto out = agent.net().forward(agent.network_rows(matrices[t]));
    advantages[t] = returns[t] - out.value;
  }
  condition_advantages(config_, advantages);

  // Accumulate policy + value gradients over the episode.
  agent.net().zero_grad();
  const double scale = 1.0 / static_cast<double>(steps.size());
  const std::size_t num_actions = agent.net().num_actions();
  double reward_sum = 0.0;
  for (std::size_t t = 0; t < steps.size(); ++t) {
    reward_sum += steps[t].reward;
    const auto out = agent.net().forward(agent.network_rows(matrices[t]));
    nn::Vec dlogits(num_actions);
    const double dvalue =
        a2c_step_gradient(config_, out.probs, steps[t].action, advantages[t],
                          returns[t], out.value, entropy_weight, scale,
                          dlogits);
    agent.net().backward(dlogits, dvalue);
  }
  auto params = agent.net().params();
  nn::Optimizer::clip_global_norm(params, config_.grad_clip);
  optimizer.step(params);

  result.train_rewards.push_back(reward_sum /
                                 static_cast<double>(steps.size()));
}

TrainResult Trainer::train(const dsl::StateProgram& program,
                           const nn::ArchSpec& spec) {
  TrainResult result;
  try {
    util::Rng init_rng(seed_ ^ 0xabcdef1234567890ULL);
    PolicyAgent agent(program, spec, domain_->num_actions(),
                      domain_->catalog(), init_rng);
    nn::Adam optimizer(config_.learning_rate);

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      const double progress =
          config_.epochs > 1
              ? static_cast<double>(epoch) /
                    static_cast<double>(config_.epochs - 1)
              : 1.0;
      const double entropy_weight =
          config_.entropy_start +
          (config_.entropy_end - config_.entropy_start) * progress;
      run_epoch(agent, optimizer, entropy_weight, result);

      if (config_.evaluate_checkpoints &&
          (epoch + 1) % config_.test_interval == 0) {
        const double score = checkpoint_eval(agent);
        result.test_epochs.push_back(static_cast<double>(epoch + 1));
        result.test_scores.push_back(score);
      }
    }
    if (config_.evaluate_checkpoints && result.test_scores.empty()) {
      // Budget smaller than the checkpoint interval: evaluate once at end.
      const double score = checkpoint_eval(agent);
      result.test_epochs.push_back(static_cast<double>(config_.epochs));
      result.test_scores.push_back(score);
    }
    result.final_score = config_.evaluate_checkpoints
                             ? util::tail_mean(result.test_scores, 10)
                             : util::tail_mean(result.train_rewards, 10);
    if (config_.emulation_final_eval) {
      result.emulation_score =
          evaluate_agent(agent, *domain_, env::Fidelity::kEmulation,
                         seed_ ^ 0xe111u);
    }
  } catch (const std::exception& e) {
    result.failed = true;
    result.error = e.what();
    result.final_score = -1e9;
  }
  return result;
}

}  // namespace nada::rl
