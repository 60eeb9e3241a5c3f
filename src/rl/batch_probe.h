// Batched probe training: many candidate designs trained in lockstep.
//
// The funnel's early-probe stage trains thousands of candidates for a
// short budget whose only output is the training-reward curve. Run one
// Trainer per candidate and almost all the time goes to single-sample
// network passes, per-step allocations, and running the state program
// twice per step. BatchProbeTrainer trains a *block* of candidates in
// lockstep instead: every candidate keeps its own RNG stream, episode,
// and trajectory, but each candidate's per-epoch policy/value update is
// fused into matrix-matrix passes over the whole episode
// (nn::Layer::forward_batch / backward_batch), the state program runs
// once per step instead of twice, and the thread pool schedules blocks
// of candidates instead of one task per candidate.
//
// The trainer is domain-generic (it probes whatever env::TaskDomain it is
// given — ABR and CC use the identical code path); fixed-length episodes
// are required so the capture caches can be sized up front, and both
// domains provide them.
//
// The contract that makes this safe to switch on by default: given the
// same per-candidate seeds, results are BIT-IDENTICAL to a fresh
// rl::Trainer per candidate — same reward curves, same failure captures,
// same checkpoint scores. The batched kernels preserve the serial
// accumulation order (see nn/mat.h), and candidates never share a random
// draw. tests/batch_probe_test.cpp (ABR) and tests/cc_funnel_test.cpp
// (CC) pin the guarantee down.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "env/domain.h"
#include "obs/metrics.h"
#include "rl/trainer.h"
#include "util/thread_pool.h"

namespace nada::rl {

/// One probe candidate: a design plus the seed its Trainer would get.
struct ProbeJob {
  const dsl::StateProgram* program = nullptr;
  const nn::ArchSpec* spec = nullptr;
  std::uint64_t seed = 0;  ///< equals the serial Trainer's constructor seed
};

struct BatchProbeConfig {
  TrainConfig train;  ///< probe budget (the pipeline passes early_epochs)
  /// Candidates trained in lockstep per scheduled block. Each candidate
  /// carries a few MB of weights, optimizer state, and capture caches, so
  /// very large blocks thrash L2 during the round-robin rollout; 4 keeps
  /// the lockstep structure (shared scheduling, shared trace table walk)
  /// while staying cache-resident on small cores.
  std::size_t block_size = 4;
  /// Optional profiling registry (pure readout): per-block wall clock in
  /// rl.probe_block.seconds, volumes in rl.probe_blocks /
  /// rl.probe_block_candidates, DSL execution volume in dsl.exec.*, and
  /// batched mat-mat kernel volume in nn.matmul.calls / nn.matmul.flops
  /// plus the active flavor in the nn.kernel.flavor gauge
  /// (0=scalar, 1=avx2, 2=fma). Must outlive the trainer.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Trains each job exactly as `Trainer(domain, config.train,
/// job.seed).train(*job.program, *job.spec)` would, but in lockstep blocks
/// with fused per-epoch updates. Results are bit-identical to the serial
/// path; failures are captured per candidate without disturbing the rest
/// of the block.
class BatchProbeTrainer {
 public:
  /// Domain-generic; `domain` must outlive the trainer.
  BatchProbeTrainer(const env::TaskDomain& domain, BatchProbeConfig config);

  /// Trains all jobs; blocks are scheduled on `pool` when non-null.
  [[nodiscard]] std::vector<TrainResult> train(std::span<const ProbeJob> jobs,
                                               util::ThreadPool* pool =
                                                   nullptr) const;

 private:
  struct Candidate;

  void train_block(std::span<const ProbeJob> jobs,
                   std::span<TrainResult> results) const;
  void step_candidate(Candidate& c) const;
  void update_candidate(Candidate& c, double entropy_weight) const;
  void finalize_candidate(Candidate& c) const;

  const env::TaskDomain* domain_;
  BatchProbeConfig config_;
  std::vector<std::size_t> eval_indices_;
};

}  // namespace nada::rl
