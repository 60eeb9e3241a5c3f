#include "rl/batch_probe.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "nn/mat_kernels.h"
#include "nn/optimizer.h"
#include "obs/scoped_timer.h"
#include "util/stats.h"

namespace nada::rl {

/// Everything one candidate carries through the lockstep loop. The RNG is
/// the candidate's private stream: it must see exactly the draws a serial
/// Trainer's would (episode choice, episode offset, action sampling, and —
/// under emulation fidelity — the session's jitter), in the same order.
struct BatchProbeTrainer::Candidate {
  const ProbeJob* job = nullptr;
  TrainResult* result = nullptr;
  util::Rng rng;
  std::unique_ptr<PolicyAgent> agent;
  std::unique_ptr<nn::Adam> optimizer;
  std::unique_ptr<env::Episode> episode;
  dsl::Bindings obs;
  bool failed = false;
  bool episode_done = false;
  // Current episode's trajectory. The rollout's forward_capture fills the
  // network's batch caches row by row and its outputs are recorded here,
  // so the fused update needs NO forward pass at all — the serial path
  // pays three per step (act, value estimate, gradient) plus a second
  // state-program run.
  std::vector<nn::Vec> step_probs;
  nn::Vec step_values;
  std::vector<std::size_t> actions;
  std::vector<double> rewards;

  Candidate(const ProbeJob& j, TrainResult& r)
      : job(&j), result(&r), rng(j.seed) {}

  void fail(const std::exception& e) {
    failed = true;
    result->failed = true;
    result->error = e.what();
    result->final_score = -1e9;
  }
};

BatchProbeTrainer::BatchProbeTrainer(const env::TaskDomain& domain,
                                     BatchProbeConfig config)
    : domain_(&domain), config_(std::move(config)) {
  if (config_.train.epochs == 0) {
    throw std::invalid_argument("BatchProbeTrainer: zero epochs");
  }
  if (config_.train.test_interval == 0) {
    throw std::invalid_argument("BatchProbeTrainer: zero test interval");
  }
  if (config_.block_size == 0) config_.block_size = 1;
  eval_indices_ = eval_trace_indices(domain_->num_eval_units(),
                                     config_.train.max_eval_traces);
}

std::vector<TrainResult> BatchProbeTrainer::train(
    std::span<const ProbeJob> jobs, util::ThreadPool* pool) const {
  for (const auto& job : jobs) {
    if (job.program == nullptr || job.spec == nullptr) {
      throw std::invalid_argument("BatchProbeTrainer: null job member");
    }
  }
  std::vector<TrainResult> results(jobs.size());
  if (jobs.empty()) return results;
  const std::size_t block = config_.block_size;
  const std::size_t num_blocks = (jobs.size() + block - 1) / block;
  auto run_block = [&](std::size_t bi) {
    const std::size_t begin = bi * block;
    const std::size_t count = std::min(block, jobs.size() - begin);
    train_block(jobs.subspan(begin, count),
                std::span<TrainResult>(results).subspan(begin, count));
  };
  if (pool != nullptr && num_blocks > 1) {
    pool->parallel_for(num_blocks, run_block);
  } else {
    for (std::size_t bi = 0; bi < num_blocks; ++bi) run_block(bi);
  }
  return results;
}

void BatchProbeTrainer::step_candidate(Candidate& c) const {
  // Mirrors PolicyAgent::decide(obs, sample=true, rng) followed by
  // episode->step(), but keeps the state rows for the fused update instead
  // of discarding them.
  const dsl::StateMatrix& matrix = c.agent->eval_state(c.obs);
  if (!matrix.all_finite()) {
    throw dsl::RuntimeError("state program produced non-finite values");
  }
  // Capture forward: bit-identical to net().forward, runs on the synced
  // fast inference path, and writes this step's row of the batch caches so
  // the epoch update can go straight to backward_batch.
  auto out = c.agent->net().forward_capture(c.agent->network_rows(matrix),
                                            c.actions.size());
  const std::size_t action = c.rng.weighted_index(out.probs);
  env::DomainStep sr = c.episode->step(action);
  c.step_probs.push_back(std::move(out.probs));
  c.step_values.push_back(out.value);
  c.actions.push_back(action);
  c.rewards.push_back(sr.reward);
  c.obs = std::move(sr.observation);
  c.episode_done = sr.done;
}

void BatchProbeTrainer::update_candidate(Candidate& c,
                                         double entropy_weight) const {
  const std::size_t steps = c.actions.size();
  const auto& train = config_.train;

  const double reward_scale = resolve_reward_scale(train, *domain_);
  const std::vector<double> returns =
      discounted_returns(c.rewards, reward_scale, train.gamma);

  // The rollout's capture pass already computed every activation this
  // update needs (the weights do not move within an epoch): probs and
  // values were recorded per step, and the layers' batch caches hold the
  // rows backward_batch reads. Episodes always span the domain's full
  // fixed length, so the capture must have filled every row.
  if (steps != domain_->episode_length()) {
    throw std::logic_error("BatchProbeTrainer: episode/capture length skew");
  }
  std::vector<double> advantages(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    advantages[t] = returns[t] - c.step_values[t];
  }
  condition_advantages(train, advantages);

  c.agent->net().zero_grad();
  const double scale = 1.0 / static_cast<double>(steps);
  const std::size_t num_actions = c.agent->net().num_actions();
  double reward_sum = 0.0;
  nn::Mat dlogits(steps, num_actions);
  nn::Vec dvalues(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    reward_sum += c.rewards[t];
    dvalues[t] = a2c_step_gradient(train, c.step_probs[t], c.actions[t],
                                   advantages[t], returns[t],
                                   c.step_values[t], entropy_weight, scale,
                                   dlogits.row(t));
  }
  c.agent->net().backward_batch(dlogits, dvalues);
  auto params = c.agent->net().params();
  nn::Optimizer::clip_global_norm(params, train.grad_clip);
  c.optimizer->step(params);
  // Weights moved: refresh the transposed caches the next rollout's
  // forward_capture (and any checkpoint evaluation's forward_inference)
  // reads.
  c.agent->net().sync_inference_cache();

  c.result->train_rewards.push_back(reward_sum /
                                    static_cast<double>(steps));
}

void BatchProbeTrainer::finalize_candidate(Candidate& c) const {
  const auto& train = config_.train;
  TrainResult& result = *c.result;
  if (train.evaluate_checkpoints && result.test_scores.empty()) {
    // Budget smaller than the checkpoint interval: evaluate once at end.
    const double score =
        evaluate_agent(*c.agent, *domain_, eval_indices_, train.fidelity,
                       c.job->seed ^ 0x5eedf00d);
    result.test_epochs.push_back(static_cast<double>(train.epochs));
    result.test_scores.push_back(score);
  }
  result.final_score = train.evaluate_checkpoints
                           ? util::tail_mean(result.test_scores, 10)
                           : util::tail_mean(result.train_rewards, 10);
  if (train.emulation_final_eval) {
    result.emulation_score =
        evaluate_agent(*c.agent, *domain_, env::Fidelity::kEmulation,
                       c.job->seed ^ 0xe111u);
  }
}

void BatchProbeTrainer::train_block(std::span<const ProbeJob> jobs,
                                    std::span<TrainResult> results) const {
  obs::ScopedTimer timer(
      obs::maybe_histogram(config_.metrics, "rl.probe_block.seconds"));
  // A block runs entirely on one thread, so the delta of this thread's
  // kernel tallies across the block is exactly the block's own mat-mat
  // volume (published below alongside the dsl.exec.* aggregates).
  const nn::KernelCounters kernels_before = nn::thread_kernel_counters();
  if (config_.metrics != nullptr) {
    config_.metrics->counter("rl.probe_blocks").add();
    config_.metrics->counter("rl.probe_block_candidates").add(jobs.size());
    config_.metrics->gauge("nn.kernel.flavor")
        .set(static_cast<double>(static_cast<int>(nn::kernel_flavor())));
  }
  const auto& train = config_.train;
  std::vector<Candidate> block;
  block.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    block.emplace_back(jobs[i], results[i]);
  }

  // Agent construction mirrors Trainer::train's init exactly (same derived
  // init seed, same failure capture).
  for (Candidate& c : block) {
    try {
      util::Rng init_rng(c.job->seed ^ 0xabcdef1234567890ULL);
      c.agent = std::make_unique<PolicyAgent>(*c.job->program, *c.job->spec,
                                              domain_->num_actions(),
                                              domain_->catalog(), init_rng);
      c.agent->net().sync_inference_cache();
      c.optimizer = std::make_unique<nn::Adam>(train.learning_rate);
    } catch (const std::exception& e) {
      c.fail(e);
    }
  }

  for (std::size_t epoch = 0; epoch < train.epochs; ++epoch) {
    bool any_live = false;
    for (const Candidate& c : block) any_live |= !c.failed;
    if (!any_live) break;

    const double progress =
        train.epochs > 1 ? static_cast<double>(epoch) /
                               static_cast<double>(train.epochs - 1)
                         : 1.0;
    const double entropy_weight =
        train.entropy_start +
        (train.entropy_end - train.entropy_start) * progress;

    // Episode starts: per-candidate environment choice and offset, drawn
    // from the candidate's own stream in the serial order (choice, then
    // reset).
    for (Candidate& c : block) {
      if (c.failed) continue;
      try {
        c.episode = domain_->start_train_episode(train.fidelity, c.rng);
        c.obs = c.episode->reset();
        c.agent->net().begin_batch_capture(domain_->episode_length());
        c.step_probs.clear();
        c.step_values.clear();
        c.actions.clear();
        c.rewards.clear();
        c.episode_done = false;
      } catch (const std::exception& e) {
        c.fail(e);
      }
    }

    // Lockstep rollout: one env step per live candidate per sweep, until
    // every episode in the block has finished.
    bool active = true;
    while (active) {
      active = false;
      for (Candidate& c : block) {
        if (c.failed || c.episode_done) continue;
        try {
          step_candidate(c);
        } catch (const std::exception& e) {
          c.fail(e);
          continue;
        }
        active |= !c.episode_done;
      }
    }

    // Fused per-candidate update over the full episode.
    for (Candidate& c : block) {
      if (c.failed) continue;
      try {
        update_candidate(c, entropy_weight);
      } catch (const std::exception& e) {
        c.fail(e);
      }
    }

    if (train.evaluate_checkpoints &&
        (epoch + 1) % train.test_interval == 0) {
      for (Candidate& c : block) {
        if (c.failed) continue;
        try {
          const double score =
              evaluate_agent(*c.agent, *domain_, eval_indices_,
                             train.fidelity, c.job->seed ^ 0x5eedf00d);
          c.result->test_epochs.push_back(static_cast<double>(epoch + 1));
          c.result->test_scores.push_back(score);
        } catch (const std::exception& e) {
          c.fail(e);
        }
      }
    }
  }

  for (Candidate& c : block) {
    if (c.failed) continue;
    try {
      finalize_candidate(c);
    } catch (const std::exception& e) {
      c.fail(e);
    }
  }

  // DSL execution volume, aggregated once per block rather than per step
  // (the counters are atomics; per-step adds would serialize the pool).
  if (config_.metrics != nullptr) {
    std::uint64_t runs = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cost_units = 0;
    for (const Candidate& c : block) {
      if (c.agent == nullptr) continue;
      runs += c.agent->exec_runs();
      instructions += c.agent->exec_stats().instructions;
      cost_units += c.agent->exec_stats().cost_units;
    }
    config_.metrics->counter("dsl.exec.runs").add(runs);
    config_.metrics->counter("dsl.exec.instructions").add(instructions);
    config_.metrics->counter("dsl.exec.cost_units").add(cost_units);
    const nn::KernelCounters& kernels_after = nn::thread_kernel_counters();
    config_.metrics->counter("nn.matmul.calls")
        .add(kernels_after.matmul_calls - kernels_before.matmul_calls);
    config_.metrics->counter("nn.matmul.flops")
        .add(kernels_after.matmul_flops - kernels_before.matmul_flops);
  }
}

}  // namespace nada::rl
