// Test helper: the serial A2C trainer, kept as the reference oracle for the
// library's only training engine, rl::BatchProbeTrainer (src/rl/
// batch_probe.h).
//
// It is the protocol written the straightforward way: per step it runs
// the state program and a single-sample forward pass to act; per epoch it
// reruns both for every step to estimate values, and once more to
// backpropagate each step on its own, through a one-row capture. Its
// network is never synced, so every forward takes the layers' exact path.
// It shares the A2C arithmetic (discounted_returns, a2c_step_gradient)
// and the evaluation helpers with the engine through
// src/rl/trainer.h, so the two cannot drift apart there; everything else
// is its own. tests/batch_probe_test.cpp (ABR) and tests/cc_funnel_test.cpp
// (CC) pin the engine bit-identical to it, and bench/probe_batch.cpp times
// one against the other.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dsl/state_program.h"
#include "env/domain.h"
#include "nn/arch.h"
#include "nn/optimizer.h"
#include "rl/agent.h"
#include "rl/trainer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace nada::test {

using rl::PolicyAgent;
using rl::TrainConfig;
using rl::TrainResult;

class Trainer {
 public:
  /// `domain` must outlive the trainer.
  Trainer(const env::TaskDomain& domain, TrainConfig config,
          std::uint64_t seed)
      : domain_(&domain), config_(config), seed_(seed), rng_(seed) {
    if (config_.epochs == 0) {
      throw std::invalid_argument("Trainer: zero epochs");
    }
    if (config_.test_interval == 0) {
      throw std::invalid_argument("Trainer: zero test interval");
    }
    eval_indices_ = rl::eval_trace_indices(domain_->num_eval_units(),
                                           config_.max_eval_traces);
  }

  /// Trains one candidate design (state program + architecture) from
  /// scratch. Failures (runtime errors in the state program, invalid
  /// architectures, non-finite values) are captured in the result rather
  /// than thrown: NADA treats them as filtered-out designs.
  [[nodiscard]] TrainResult train(const dsl::StateProgram& program,
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
            rl::kEntropyStart +
            (rl::kEntropyEnd - rl::kEntropyStart) * progress;
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
            rl::evaluate_agent(agent, *domain_, env::Fidelity::kEmulation,
                               seed_ ^ 0xe111u);
      }
    } catch (const std::exception& e) {
      result.failed = true;
      result.error = e.what();
      result.final_score = -1e9;
    }
    return result;
  }

 private:
  void run_epoch(PolicyAgent& agent, nn::Adam& optimizer,
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

    // The episode refills this frame in place, so each step keeps a copy.
    const dsl::Bindings& obs = episode->reset();
    while (!episode->done()) {
      const auto decision = agent.decide(obs, /*sample=*/true, rng_);
      dsl::Bindings kept = obs;
      const env::DomainStep sr = episode->step(decision.action);
      steps.push_back(
          Step{std::move(kept), decision.action, sr.reward, decision.value});
    }

    // Discounted returns over scaled rewards (see rl::discounted_returns).
    const double reward_scale = domain_->reward_scale_hint();
    std::vector<double> rewards(steps.size());
    for (std::size_t t = 0; t < steps.size(); ++t) {
      rewards[t] = steps[t].reward;
    }
    const std::vector<double> returns =
        rl::discounted_returns(rewards, reward_scale);

    // First pass: fresh values for the advantage estimates.
    std::vector<double> advantages(steps.size());
    std::vector<dsl::StateMatrix> matrices;
    matrices.reserve(steps.size());
    for (std::size_t t = 0; t < steps.size(); ++t) {
      matrices.push_back(agent.eval_state(steps[t].obs));
      const auto out =
          agent.net().forward_inference(agent.network_rows(matrices[t]));
      advantages[t] = returns[t] - out.value;
    }

    // Accumulate policy + value gradients over the episode.
    agent.net().zero_grad();
    const double scale = 1.0 / static_cast<double>(steps.size());
    const std::size_t num_actions = agent.net().num_actions();
    double reward_sum = 0.0;
    for (std::size_t t = 0; t < steps.size(); ++t) {
      reward_sum += steps[t].reward;
      agent.net().begin_batch_capture(1);
      const auto out =
          agent.net().forward_capture(agent.network_rows(matrices[t]), 0);
      nn::Vec dlogits(num_actions);
      const double dvalue = rl::a2c_step_gradient(
          out.probs, steps[t].action, advantages[t], returns[t], out.value,
          entropy_weight, scale, dlogits);
      nn::Mat dlogits_row(1, num_actions);
      std::copy(dlogits.begin(), dlogits.end(), dlogits_row.row(0).begin());
      agent.net().backward_batch(dlogits_row, nn::Mat(1, 1, dvalue));
    }
    auto params = agent.net().params();
    nn::clip_global_norm(params, rl::kGradClip);
    optimizer.step(params);

    result.train_rewards.push_back(reward_sum /
                                   static_cast<double>(steps.size()));
  }

  [[nodiscard]] double checkpoint_eval(PolicyAgent& agent) const {
    return rl::evaluate_agent(agent, *domain_, eval_indices_,
                              config_.fidelity, seed_ ^ 0x5eedf00d);
  }

  const env::TaskDomain* domain_;
  TrainConfig config_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::vector<std::size_t> eval_indices_;
};

}  // namespace nada::test
