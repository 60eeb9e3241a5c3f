// Congestion-control environment — the paper's §5 extension target.
//
// NADA's discussion section plans to extend the framework from ABR to
// congestion control. This module provides that substrate: a rate-based CC
// environment in the Aurora/PCC-RL mold. A sender picks a rate action each
// monitor interval; the bottleneck has trace-driven capacity (reusing the
// same trace generators), a FIFO queue, and a base RTT. Observations are
// histories of achieved throughput, RTT, loss, and sending rate — the
// quantities a CC state function (NadaScript over cc::bindings) consumes.
//
// Reward follows the throughput-latency-loss shape used by RL-CC work
// (Jay et al., ICML'19): reward = throughput − a·queue_delay − b·loss.
#pragma once

#include <cstddef>
#include <vector>

#include "trace/trace.h"
#include "util/rng.h"

namespace nada::cc {

inline constexpr std::size_t kCcHistoryLen = 8;

struct CcConfig {
  double base_rtt_ms = 40.0;
  double queue_capacity_ms = 200.0;   ///< max queuing delay before drops
  double interval_s = 0.1;            ///< monitor interval per action
  double init_rate_mbps = 1.0;
  double min_rate_mbps = 0.05;
  double max_rate_mbps = 500.0;
  double latency_penalty = 0.5;       ///< reward weight on queue delay (s)
  double loss_penalty = 10.0;         ///< reward weight on loss fraction
  std::size_t steps_per_episode = 400;
};

/// Multiplicative rate actions (Aurora-style discrete control).
[[nodiscard]] const std::vector<double>& rate_actions();

struct CcObservation {
  std::vector<double> send_rate_mbps;   ///< last kCcHistoryLen sent rates
  std::vector<double> ack_rate_mbps;    ///< achieved throughput history
  std::vector<double> rtt_ms;           ///< RTT sample history
  std::vector<double> loss_fraction;    ///< per-interval loss history
  double min_rtt_ms = 0.0;
  double current_rate_mbps = 0.0;
};

struct CcStepResult {
  CcObservation observation;
  double reward = 0.0;
  double throughput_mbps = 0.0;
  double rtt_ms = 0.0;
  double loss = 0.0;
  bool done = false;
};

/// One episode = steps_per_episode monitor intervals over one capacity
/// trace (wrapping like the ABR simulator).
///
/// Construction consumes no randomness: the RNG is only drawn when reset()
/// starts an episode (start offset) and during steps (measurement jitter),
/// so the caller's seed stream is a pure function of the episodes it
/// actually runs — the property the batched/serial probe equivalence
/// guarantee rests on. reset() must be called before step().
class CcEnv {
 public:
  CcEnv(const trace::Trace& capacity, CcConfig config, util::Rng& rng);

  /// Starts a fresh episode (new random trace offset); returns the initial
  /// observation.
  CcObservation reset();

  /// Applies rate action index (see rate_actions()) and advances one
  /// monitor interval. Throws std::logic_error before the first reset().
  CcStepResult step(std::size_t action);

  [[nodiscard]] bool done() const {
    return started_ && step_ >= config_.steps_per_episode;
  }
  [[nodiscard]] std::size_t num_actions() const {
    return rate_actions().size();
  }
  [[nodiscard]] double rate_mbps() const { return rate_mbps_; }

 private:
  [[nodiscard]] CcObservation make_observation() const;
  void push(std::vector<double>& hist, double v);

  const trace::Trace* capacity_;
  CcConfig config_;
  util::Rng* rng_;
  double clock_s_ = 0.0;
  double rate_mbps_ = 0.0;
  double queue_ms_ = 0.0;  ///< queue occupancy expressed as drain time
  std::size_t step_ = 0;
  bool started_ = false;
  std::vector<double> send_hist_, ack_hist_, rtt_hist_, loss_hist_;
};

/// Classic AIMD (Reno-flavoured, per monitor interval): additive increase
/// while loss-free, multiplicative decrease on loss.
class AimdController {
 public:
  AimdController(double increase_mbps = 0.2, double decrease_factor = 0.5);

  /// Maps the desired rate change to the nearest discrete action.
  [[nodiscard]] std::size_t act(const CcObservation& obs);
  void reset();

 private:
  double increase_mbps_;
  double decrease_factor_;
};

}  // namespace nada::cc
