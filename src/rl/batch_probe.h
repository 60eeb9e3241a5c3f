// The training engine: every A2C training run in the library goes through
// BatchProbeTrainer — the funnel's early probes, the original design's
// baseline sessions, and the top-K's full training (rl::run_sessions).
//
// Each job is one (design, seed) training run and one pool task. A job
// keeps its own RNG stream, agent and optimizer, and runs its epochs as
// straight-line code: roll one episode through the network's capture
// forward, then apply the epoch's policy/value update as one fused
// matrix-matrix backward pass over the whole episode
// (nn::Layer::backward_batch). The rollout already recorded every
// activation the update needs, so the update runs no forward pass and no
// second state-program run.
//
// The engine is domain-generic (ABR and CC use the identical code path);
// fixed-length episodes are required so the capture caches can be sized up
// front, and both domains provide them.
//
// The contract: given the same per-job seeds, results are BIT-IDENTICAL to
// the straightforward serial A2C loop in tests/rl_trainer_oracle.h — same
// reward curves, same failure captures, same checkpoint and emulation
// scores. The fused kernels preserve the serial accumulation order (see
// nn/mat.h), and jobs never share a random draw. tests/batch_probe_test.cpp
// (ABR) and tests/cc_funnel_test.cpp (CC) pin the guarantee down.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "env/domain.h"
#include "obs/metrics.h"
#include "rl/trainer.h"
#include "util/thread_pool.h"

namespace nada::rl {

/// One training job: a design plus the seed of its private RNG stream.
struct ProbeJob {
  const dsl::StateProgram* program = nullptr;
  const nn::ArchSpec* spec = nullptr;
  std::uint64_t seed = 0;
};

struct BatchProbeConfig {
  TrainConfig train;  ///< training budget (probes pass early_epochs)
  /// Read by nothing: every job is its own pool task. Kept only because
  /// the end-to-end benchmark harness (nada_bench/layers.cpp) still
  /// initializes it.
  std::size_t block_size = 4;
  /// Optional profiling registry (pure readout). Per job: wall clock in
  /// rl.probe_block.seconds and its split by phase in
  /// rl.probe.phase.<dsl|forward|sample|env|backward|optimizer|sync>.seconds,
  /// one count each in rl.probe_blocks and rl.probe_block_candidates, DSL
  /// execution volume in dsl.exec.*, and batched mat-mat kernel volume in
  /// nn.matmul.calls / nn.matmul.flops, plus the active flavor in the
  /// nn.kernel.flavor gauge (0=scalar, 1=avx2). Without it the
  /// trainer reads no clock. The funnel passes it for probes only. Must
  /// outlive the trainer.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Trains each job to the serial oracle's result, one job per pool task.
/// Failures (runtime errors in the state program, invalid architectures,
/// non-finite values) are captured in that job's result rather than
/// thrown: NADA treats them as filtered-out designs.
class BatchProbeTrainer {
 public:
  /// Domain-generic; `domain` must outlive the trainer. Throws
  /// std::invalid_argument on zero epochs or a zero test interval, and
  /// std::runtime_error when NADA_NN_KERNEL names no usable kernel flavor
  /// (the table is resolved here, so the error fails the caller's run
  /// rather than each job).
  BatchProbeTrainer(const env::TaskDomain& domain, BatchProbeConfig config);

  /// Trains all jobs, scheduled on `pool` when non-null. Results are in
  /// job order and independent of the pool.
  [[nodiscard]] std::vector<TrainResult> train(std::span<const ProbeJob> jobs,
                                               util::ThreadPool* pool =
                                                   nullptr) const;

 private:
  [[nodiscard]] TrainResult train_job(const ProbeJob& job) const;

  const env::TaskDomain* domain_;
  BatchProbeConfig config_;
  std::vector<std::size_t> eval_indices_;
};

}  // namespace nada::rl
