// Congestion-control environment — the paper's §5 extension target.
//
// NADA's discussion section plans to extend the framework from ABR to
// congestion control. This module provides that substrate: a rate-based CC
// environment in the Aurora/PCC-RL mold. A sender picks a rate action each
// monitor interval; the bottleneck has trace-driven capacity (reusing the
// same trace generators), a FIFO queue, and a base RTT. CcEnv is the CC
// domain's env::Episode: it owns one frame over cc_input_variables() and
// writes its observation there in place — histories of achieved
// throughput, RTT, loss, and sending rate, the quantities a CC state
// function (NadaScript over the same vocabulary) consumes. AIMD reads the
// same frame.
//
// Reward follows the throughput-latency-loss shape used by RL-CC work
// (Jay et al., ICML'19): reward = throughput − a·queue_delay − b·loss.
#pragma once

#include <cstddef>
#include <vector>

#include "dsl/binding_catalog.h"
#include "env/domain.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace nada::cc {

inline constexpr std::size_t kCcHistoryLen = 8;

/// The CC input variables in slot order (semantic names, as the paper's
/// prompting strategy prescribes).
[[nodiscard]] const dsl::Vocabulary& cc_input_variables();

/// The slot of each variable of cc_input_variables(), in its order.
/// Histories hold the last kCcHistoryLen monitor intervals, oldest-first.
enum CcSlot : std::size_t {
  kSendRateMbps,     ///< sent rates
  kAckRateMbps,      ///< achieved throughput
  kRttMs,            ///< RTT samples
  kLossFraction,     ///< per-interval loss
  kMinRttMs,         ///< the path's base RTT
  kCurrentRateMbps,  ///< the rate the next interval starts from
};

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

/// One episode = steps_per_episode monitor intervals over one capacity
/// trace (wrapping like the ABR simulator).
///
/// Construction consumes no randomness: the RNG is only drawn when reset()
/// starts an episode (start offset) and during steps (measurement jitter),
/// so the caller's seed stream is a pure function of the episodes it
/// actually runs — the property the batched/serial probe equivalence
/// guarantee rests on. reset() must be called before step().
class CcEnv final : public env::Episode {
 public:
  CcEnv(const trace::Trace& capacity, CcConfig config, util::Rng& rng);

  /// Starts a fresh episode (new random trace offset) and writes the
  /// initial observation.
  [[nodiscard]] const dsl::Bindings& reset() override;

  /// Applies rate action index (see rate_actions()) and advances one
  /// monitor interval. The interval's throughput, RTT and loss are the
  /// newest entries of the frame's ack_rate_mbps, rtt_ms and
  /// loss_fraction. Throws std::logic_error before the first reset().
  [[nodiscard]] env::DomainStep step(std::size_t action) override;

  [[nodiscard]] bool done() const override {
    return started_ && step_ >= config_.steps_per_episode;
  }
  [[nodiscard]] double rate_mbps() const { return rate_mbps_; }

 private:
  const trace::Trace* capacity_;
  CcConfig config_;
  util::Rng* rng_;
  double clock_s_ = 0.0;
  double rate_mbps_ = 0.0;
  double queue_ms_ = 0.0;  ///< queue occupancy expressed as drain time
  std::size_t step_ = 0;
  bool started_ = false;
  dsl::Bindings frame_{cc_input_variables()};
};

/// Classic AIMD (Reno-flavoured, per monitor interval): additive increase
/// while loss-free, multiplicative decrease on loss.
class AimdController {
 public:
  AimdController(double increase_mbps = 0.2, double decrease_factor = 0.5);

  /// Maps the desired rate change for `frame`, a frame over
  /// cc_input_variables(), to the nearest discrete action.
  [[nodiscard]] std::size_t act(const dsl::Bindings& frame) const;

 private:
  double increase_mbps_;
  double decrease_factor_;
};

}  // namespace nada::cc
