// Advantage actor-critic training over any TaskDomain, following
// Pensieve's training protocol: each epoch rolls one full episode in an
// environment randomly chosen from the train split, the discounted-return
// advantage drives the policy gradient (with entropy regularization), and
// model checkpoints are periodically evaluated on the held-out eval split.
//
// This header holds the protocol's configuration, its result type, the
// evaluation helpers, and the per-epoch A2C arithmetic. The loop that runs
// it is rl::BatchProbeTrainer (rl/batch_probe.h), the library's only
// training engine: probes, the baseline and full training all go through
// it. tests/rl_trainer_oracle.h keeps a straightforward serial loop over
// the same arithmetic as the engine's bitwise reference.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsl/state_program.h"
#include "env/domain.h"
#include "nn/arch.h"
#include "rl/agent.h"

namespace nada::rl {

struct TrainConfig {
  std::size_t epochs = 400;
  std::size_t test_interval = 10;  ///< evaluate a checkpoint every N epochs
  double gamma = 0.99;
  double learning_rate = 1e-3;
  double entropy_start = 1.0;  ///< entropy weight, annealed linearly
  double entropy_end = 0.05;
  double grad_clip = 5.0;
  env::Fidelity fidelity = env::Fidelity::kSimulation;
  /// When false, skips test-set evaluation entirely (early probes only need
  /// the training-reward curve); final_score falls back to the tail of the
  /// training rewards.
  bool evaluate_checkpoints = true;
  /// Caps how many eval units each checkpoint evaluation streams
  /// (0 = all). Scaled-down runs use this to keep evaluation from
  /// dominating training cost.
  std::size_t max_eval_traces = 0;
  /// After training completes, additionally evaluate the final policy on
  /// the eval split under emulation fidelity (paper Table 4: sim-trained
  /// designs validated in emulation). Domains without an emulation model
  /// evaluate under their only simulator.
  bool emulation_final_eval = false;
};

/// Everything one training session produces. Reward curves feed the
/// early-stopping classifier; test curves feed Figures 3 and 4.
struct TrainResult {
  std::vector<double> train_rewards;  ///< per-epoch mean step reward
  std::vector<double> test_epochs;    ///< checkpoint positions
  std::vector<double> test_scores;    ///< checkpoint test scores
  double final_score = 0.0;  ///< mean of the last <=10 checkpoint scores
  /// Final policy's test score under emulation fidelity (only populated
  /// when TrainConfig::emulation_final_eval is set).
  double emulation_score = 0.0;
  bool failed = false;       ///< state program or architecture blew up
  std::string error;
};

/// Mean per-step reward of a greedy rollout over the eval units in
/// `indices` (ascending). `eval_seed` fixes the episode start offsets so
/// successive checkpoint evaluations are comparable.
[[nodiscard]] double evaluate_agent(PolicyAgent& agent,
                                    const env::TaskDomain& domain,
                                    std::span<const std::size_t> indices,
                                    env::Fidelity fidelity,
                                    std::uint64_t eval_seed);

/// As above over the domain's whole eval split.
[[nodiscard]] double evaluate_agent(PolicyAgent& agent,
                                    const env::TaskDomain& domain,
                                    env::Fidelity fidelity,
                                    std::uint64_t eval_seed);

/// Deterministic evaluation subset: `cap` indices strided evenly across
/// [0, num_traces) (all indices when cap is 0 or >= num_traces). A strided
/// pick keeps the subset representative of the whole split — evaluating a
/// prefix would bias every checkpoint score toward whatever traces happen
/// to sort first.
[[nodiscard]] std::vector<std::size_t> eval_trace_indices(
    std::size_t num_traces, std::size_t cap);

// ---- A2C loss arithmetic, shared by the engine and its test oracle ----------
// One definition of the per-epoch math keeps the engine and the serial
// oracle structurally incapable of drifting apart (their bit-identity is
// the engine's core guarantee).

/// Discounted returns over rewards divided by `reward_scale`,
/// newest-to-oldest accumulation. Callers pass the domain's
/// reward_scale_hint(), so policy/value gradients have comparable
/// magnitudes across reward regimes (QoE_lin on the 53 Mbps YouTube ladder
/// is ~12x Pensieve's); reported scores are unscaled.
[[nodiscard]] std::vector<double> discounted_returns(
    std::span<const double> rewards, double reward_scale, double gamma);

/// One step's policy gradient (entropy-regularized, written into `dlogits`)
/// and Huber critic gradient (returned).
double a2c_step_gradient(const nn::Vec& probs, std::size_t action,
                         double advantage, double step_return, double value,
                         double entropy_weight, double scale,
                         std::span<double> dlogits);

}  // namespace nada::rl
