// Multi-seed training sessions and the paper's "test score".
//
// §3.1: each design is trained five times with different random seeds; each
// session's score is the average test reward over its last 10 checkpoints,
// and the reported score is the median across sessions. run_sessions
// implements exactly that protocol (seed count is configurable) and also
// returns the per-checkpoint median curve used by Figures 3 and 4.
// Sessions are domain-generic: they train over any env::TaskDomain, on the
// library's one training engine (rl::BatchProbeTrainer).
#pragma once

#include <cstdint>
#include <vector>

#include "env/domain.h"
#include "rl/trainer.h"
#include "util/thread_pool.h"

namespace nada::rl {

struct SessionConfig {
  std::size_t seeds = 5;
  TrainConfig train;
};

struct SessionResult {
  double test_score = 0.0;  ///< median across seeds of per-session scores
  /// Median emulation score across seeds (populated when the train config
  /// requested emulation_final_eval).
  double emulation_score = 0.0;
  std::vector<TrainResult> sessions;
  /// Median test score across seeds at each checkpoint (Figure 3/4 series);
  /// paired with `curve_epochs`.
  std::vector<double> median_curve;
  std::vector<double> curve_epochs;
  bool failed = false;  ///< true when every session failed
};

/// Aggregates already-run per-seed results into a SessionResult (the same
/// median/curve logic run_sessions applies).
[[nodiscard]] SessionResult aggregate_sessions(
    std::vector<TrainResult> sessions, bool emulation_eval);

/// One design to train across seeds.
struct SessionJob {
  const dsl::StateProgram* program = nullptr;
  const nn::ArchSpec* spec = nullptr;
  std::uint64_t base_seed = 0;
};

/// Trains every job across `config.seeds` independent sessions over
/// `domain` and returns one SessionResult per job, in job order. Session
/// s of a job trains with seed `base_seed + 0x9e3779b9 * (s + 1)`. Every
/// (design, seed) pair is one task of a single engine call, so all pool
/// threads stay busy whether designs outnumber seeds or vice versa.
/// Publishes no metrics: the engine's rl.probe_* figures describe probes.
[[nodiscard]] std::vector<SessionResult> run_sessions(
    const env::TaskDomain& domain, const std::vector<SessionJob>& jobs,
    const SessionConfig& config, util::ThreadPool* pool = nullptr);

}  // namespace nada::rl
