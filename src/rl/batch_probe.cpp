#include "rl/batch_probe.h"

#include <array>
#include <chrono>
#include <memory>

#include "nn/mat_kernels.h"
#include "nn/optimizer.h"
#include "obs/scoped_timer.h"
#include "util/stats.h"

namespace nada::rl {

namespace {

/// The phases of a training task that BatchProbeConfig::metrics splits
/// rl.probe_block.seconds into, published as rl.probe.phase.<name>.seconds.
enum Phase : std::size_t {
  kDsl,        ///< state program run, finiteness check, network rows
  kForward,    ///< capture forward
  kSample,     ///< action sampling and trajectory bookkeeping
  kEnv,        ///< episode start, reset and step (with the frame refill)
  kBackward,   ///< returns, advantages, A2C gradients and backward_batch
  kOptimizer,  ///< gradient clip and Adam
  kSync,       ///< transposed-weight refresh after the update
  kNumPhases
};

constexpr std::array<const char*, kNumPhases> kPhaseNames = {
    "rl.probe.phase.dsl.seconds",      "rl.probe.phase.forward.seconds",
    "rl.probe.phase.sample.seconds",   "rl.probe.phase.env.seconds",
    "rl.probe.phase.backward.seconds", "rl.probe.phase.optimizer.seconds",
    "rl.probe.phase.sync.seconds"};

/// Per-phase wall-clock of one task. Disabled, it reads no clock: every
/// call is one branch.
class PhaseClock {
 public:
  using Clock = std::chrono::steady_clock;

  explicit PhaseClock(bool enabled) : enabled_(enabled) { restart(); }

  /// Charges the time since the previous mark (or restart) to `phase`.
  void mark(Phase phase) {
    if (!enabled_) return;
    const Clock::time_point now = Clock::now();
    seconds_[phase] += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }
  /// Starts the next phase here, charging the time since the previous
  /// mark to nothing.
  void restart() {
    if (enabled_) last_ = Clock::now();
  }

  [[nodiscard]] double seconds(Phase phase) const { return seconds_[phase]; }

 private:
  bool enabled_;
  Clock::time_point last_{};
  std::array<double, kNumPhases> seconds_{};
};

/// One epoch's trajectory, reused across epochs. The rollout's
/// forward_capture fills the network's batch caches row by row and its
/// outputs are recorded here, so the fused update needs NO forward pass at
/// all — the serial oracle pays three per step (act, value estimate,
/// gradient) plus a second state-program run.
struct Rollout {
  std::vector<nn::Vec> probs;
  nn::Vec values;
  std::vector<std::size_t> actions;
  std::vector<double> rewards;
};

/// Resets `episode` and steps it to the end. Each step mirrors
/// PolicyAgent::decide(obs, sample=true, rng) followed by episode.step(),
/// but keeps the state rows for the fused update instead of discarding
/// them. `rng` is the job's private stream: it sees exactly the oracle's
/// draws (action sampling and, under emulation fidelity, the session's
/// jitter) in the same order.
void roll_episode(PolicyAgent& agent, env::Episode& episode,
                  std::size_t episode_length, util::Rng& rng,
                  Rollout& rollout, PhaseClock& clock) {
  // The episode refills this frame in place on every step.
  const dsl::Bindings& obs = episode.reset();
  clock.mark(kEnv);
  agent.net().begin_batch_capture(episode_length);
  rollout.probs.clear();
  rollout.values.clear();
  rollout.actions.clear();
  rollout.rewards.clear();
  bool done = false;
  while (!done) {
    const dsl::StateMatrix& matrix = agent.eval_state(obs);
    if (!matrix.all_finite()) {
      throw dsl::RuntimeError("state program produced non-finite values");
    }
    const std::vector<nn::Vec>& rows = agent.network_rows(matrix);
    clock.mark(kDsl);
    // Capture forward: bit-identical to forward_inference, runs on the
    // synced fast inference path, and writes this step's row of the batch
    // caches so the epoch update can go straight to backward_batch.
    auto out = agent.net().forward_capture(rows, rollout.actions.size());
    clock.mark(kForward);
    const std::size_t action = rng.weighted_index(out.probs);
    rollout.probs.push_back(std::move(out.probs));
    rollout.values.push_back(out.value);
    rollout.actions.push_back(action);
    clock.mark(kSample);
    const env::DomainStep sr = episode.step(action);
    rollout.rewards.push_back(sr.reward);
    done = sr.done;
    clock.mark(kEnv);
  }
}

/// The epoch's policy/value update as one fused backward pass over the
/// whole episode; returns the episode's mean step reward.
double fused_update(const TrainConfig& train, const env::TaskDomain& domain,
                    PolicyAgent& agent, nn::Adam& optimizer,
                    const Rollout& rollout, double entropy_weight,
                    PhaseClock& clock) {
  const std::size_t steps = rollout.actions.size();
  // The rollout's capture pass already computed every activation this
  // update needs (the weights do not move within an epoch): probs and
  // values were recorded per step, and the layers' batch caches hold the
  // rows backward_batch reads. Episodes always span the domain's full
  // fixed length, so the capture must have filled every row.
  if (steps != domain.episode_length()) {
    throw std::logic_error("BatchProbeTrainer: episode/capture length skew");
  }
  const std::vector<double> returns = discounted_returns(
      rollout.rewards, domain.reward_scale_hint(), train.gamma);
  std::vector<double> advantages(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    advantages[t] = returns[t] - rollout.values[t];
  }

  // No zero_grad: the gradients are zero already, from construction or
  // from the previous update's Adam::step, which zeroes every one.
  const double scale = 1.0 / static_cast<double>(steps);
  double reward_sum = 0.0;
  nn::Mat dlogits(steps, agent.net().num_actions());
  nn::Vec dvalues(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    reward_sum += rollout.rewards[t];
    dvalues[t] = a2c_step_gradient(rollout.probs[t], rollout.actions[t],
                                   advantages[t], returns[t],
                                   rollout.values[t], entropy_weight, scale,
                                   dlogits.row(t));
  }
  agent.net().backward_batch(dlogits, dvalues);
  clock.mark(kBackward);
  auto params = agent.net().params();
  nn::clip_global_norm(params, train.grad_clip);
  optimizer.step(params);
  clock.mark(kOptimizer);
  // Weights moved: refresh the transposed caches the next rollout's
  // forward_capture (and any checkpoint evaluation's forward_inference)
  // reads.
  agent.net().sync_inference_cache();
  clock.mark(kSync);
  return reward_sum / static_cast<double>(steps);
}

}  // namespace

BatchProbeTrainer::BatchProbeTrainer(const env::TaskDomain& domain,
                                     BatchProbeConfig config)
    : domain_(&domain), config_(std::move(config)) {
  if (config_.train.epochs == 0) {
    throw std::invalid_argument("BatchProbeTrainer: zero epochs");
  }
  if (config_.train.test_interval == 0) {
    throw std::invalid_argument("BatchProbeTrainer: zero test interval");
  }
  eval_indices_ = eval_trace_indices(domain_->num_eval_units(),
                                     config_.train.max_eval_traces);
  // Resolve the kernel table here, outside train_job's per-job catch: a bad
  // NADA_NN_KERNEL is a configuration error that must fail the run, not be
  // recorded (and journaled) as every design's training failure.
  (void)nn::active_kernels();
}

std::vector<TrainResult> BatchProbeTrainer::train(
    std::span<const ProbeJob> jobs, util::ThreadPool* pool) const {
  for (const auto& job : jobs) {
    if (job.program == nullptr || job.spec == nullptr) {
      throw std::invalid_argument("BatchProbeTrainer: null job member");
    }
  }
  std::vector<TrainResult> results(jobs.size());
  auto run_job = [&](std::size_t i) { results[i] = train_job(jobs[i]); };
  if (pool != nullptr && jobs.size() > 1) {
    pool->parallel_for(jobs.size(), run_job);
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_job(i);
  }
  return results;
}

TrainResult BatchProbeTrainer::train_job(const ProbeJob& job) const {
  obs::ScopedTimer timer(
      obs::maybe_histogram(config_.metrics, "rl.probe_block.seconds"));
  // A job runs entirely on one thread, so the delta of this thread's
  // kernel tallies across the job is exactly the job's own mat-mat volume.
  const nn::KernelCounters kernels_before = nn::thread_kernel_counters();
  PhaseClock clock(config_.metrics != nullptr);
  const TrainConfig& train = config_.train;
  TrainResult result;
  std::unique_ptr<PolicyAgent> agent;
  try {
    util::Rng init_rng(job.seed ^ 0xabcdef1234567890ULL);
    agent = std::make_unique<PolicyAgent>(*job.program, *job.spec,
                                          domain_->num_actions(),
                                          domain_->catalog(), init_rng);
    agent->net().sync_inference_cache();
    nn::Adam optimizer(train.learning_rate);
    const auto checkpoint_eval = [&] {
      return evaluate_agent(*agent, *domain_, eval_indices_, train.fidelity,
                            job.seed ^ 0x5eedf00d);
    };

    util::Rng rng(job.seed);
    Rollout rollout;
    for (std::size_t epoch = 0; epoch < train.epochs; ++epoch) {
      clock.restart();
      const double progress =
          train.epochs > 1 ? static_cast<double>(epoch) /
                                 static_cast<double>(train.epochs - 1)
                           : 1.0;
      const double entropy_weight =
          train.entropy_start +
          (train.entropy_end - train.entropy_start) * progress;
      // Episode choice and start offset come from the job's stream, in
      // the oracle's order (choice, then reset).
      const auto episode = domain_->start_train_episode(train.fidelity, rng);
      roll_episode(*agent, *episode, domain_->episode_length(), rng, rollout,
                   clock);
      result.train_rewards.push_back(fused_update(train, *domain_, *agent,
                                                  optimizer, rollout,
                                                  entropy_weight, clock));

      if (train.evaluate_checkpoints &&
          (epoch + 1) % train.test_interval == 0) {
        const double score = checkpoint_eval();
        result.test_epochs.push_back(static_cast<double>(epoch + 1));
        result.test_scores.push_back(score);
      }
    }
    if (train.evaluate_checkpoints && result.test_scores.empty()) {
      // Budget smaller than the checkpoint interval: evaluate once at end.
      const double score = checkpoint_eval();
      result.test_epochs.push_back(static_cast<double>(train.epochs));
      result.test_scores.push_back(score);
    }
    result.final_score = train.evaluate_checkpoints
                             ? util::tail_mean(result.test_scores, 10)
                             : util::tail_mean(result.train_rewards, 10);
    if (train.emulation_final_eval) {
      result.emulation_score =
          evaluate_agent(*agent, *domain_, env::Fidelity::kEmulation,
                         job.seed ^ 0xe111u);
    }
  } catch (const std::exception& e) {
    // The curves recorded so far stay, as the oracle's do.
    result.failed = true;
    result.error = e.what();
    result.final_score = -1e9;
  }

  // Published once per job rather than per step (the counters are
  // atomics; per-step adds would serialize the pool).
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *config_.metrics;
    metrics.counter("rl.probe_blocks").add();
    metrics.counter("rl.probe_block_candidates").add();
    metrics.gauge("nn.kernel.flavor")
        .set(static_cast<double>(static_cast<int>(nn::kernel_flavor())));
    const dsl::Vm::Stats exec =
        agent != nullptr ? agent->exec_stats() : dsl::Vm::Stats{};
    metrics.counter("dsl.exec.runs").add(exec.runs);
    metrics.counter("dsl.exec.instructions").add(exec.instructions);
    metrics.counter("dsl.exec.cost_units").add(exec.cost_units);
    const nn::KernelCounters& kernels_after = nn::thread_kernel_counters();
    metrics.counter("nn.matmul.calls")
        .add(kernels_after.matmul_calls - kernels_before.matmul_calls);
    metrics.counter("nn.matmul.flops")
        .add(kernels_after.matmul_flops - kernels_before.matmul_flops);
    for (std::size_t phase = 0; phase < kNumPhases; ++phase) {
      metrics.histogram(kPhaseNames[phase])
          .observe(clock.seconds(static_cast<Phase>(phase)));
    }
  }
  return result;
}

}  // namespace nada::rl
