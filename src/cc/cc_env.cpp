#include "cc/cc_env.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nada::cc {

const dsl::Vocabulary& cc_input_variables() {
  // Slot order: CcSlot names these slots, and cc_test pins every name
  // against it.
  static const dsl::Vocabulary kVars({
      {"send_rate_mbps", true},   {"ack_rate_mbps", true},
      {"rtt_ms", true},           {"loss_fraction", true},
      {"min_rtt_ms", false},      {"current_rate_mbps", false},
  });
  return kVars;
}

const std::vector<double>& rate_actions() {
  static const std::vector<double> kActions = {0.6, 0.85, 1.0, 1.15, 1.5};
  return kActions;
}

CcEnv::CcEnv(const trace::Trace& capacity, CcConfig config, util::Rng& rng)
    : capacity_(&capacity), config_(config), rng_(&rng) {
  if (config_.interval_s <= 0.0 || config_.steps_per_episode == 0) {
    throw std::invalid_argument("CcEnv: degenerate config");
  }
  if (config_.min_rate_mbps <= 0.0 ||
      config_.min_rate_mbps >= config_.max_rate_mbps) {
    throw std::invalid_argument("CcEnv: bad rate bounds");
  }
}

const dsl::Bindings& CcEnv::reset() {
  started_ = true;
  clock_s_ = rng_->uniform(0.0, std::max(capacity_->duration_s() - 1.0, 0.0));
  rate_mbps_ = config_.init_rate_mbps;
  queue_ms_ = 0.0;
  step_ = 0;
  frame_[kSendRateMbps].mutable_vector().assign(kCcHistoryLen, 0.0);
  frame_[kAckRateMbps].mutable_vector().assign(kCcHistoryLen, 0.0);
  frame_[kRttMs].mutable_vector().assign(kCcHistoryLen, config_.base_rtt_ms);
  frame_[kLossFraction].mutable_vector().assign(kCcHistoryLen, 0.0);
  frame_[kMinRttMs].set_scalar(config_.base_rtt_ms);
  frame_[kCurrentRateMbps].set_scalar(rate_mbps_);
  return frame_;
}

env::DomainStep CcEnv::step(std::size_t action) {
  if (!started_) throw std::logic_error("CcEnv::step before reset");
  if (done()) throw std::logic_error("CcEnv::step after episode end");
  if (action >= rate_actions().size()) {
    throw std::out_of_range("CcEnv::step: action index");
  }
  rate_mbps_ = std::clamp(rate_mbps_ * rate_actions()[action],
                          config_.min_rate_mbps, config_.max_rate_mbps);

  // One monitor interval: offered load vs trace capacity. Excess feeds the
  // queue (measured in drain-time ms at current capacity); queue overflow
  // is loss.
  const double capacity_mbps =
      std::max(capacity_->bandwidth_kbps_at(clock_s_) / 1000.0, 1e-3);
  const double offered_mbit = rate_mbps_ * config_.interval_s;
  const double drained_mbit = capacity_mbps * config_.interval_s;

  // Queue currently holds queue_ms_ worth of drain time.
  double backlog_mbit = queue_ms_ / 1000.0 * capacity_mbps;
  backlog_mbit += offered_mbit;
  double delivered_mbit = std::min(backlog_mbit, drained_mbit);
  backlog_mbit -= delivered_mbit;

  // Convert back to queuing delay; drop what exceeds the buffer.
  double new_queue_ms = backlog_mbit / capacity_mbps * 1000.0;
  double lost_mbit = 0.0;
  if (new_queue_ms > config_.queue_capacity_ms) {
    const double overflow_ms = new_queue_ms - config_.queue_capacity_ms;
    lost_mbit = overflow_ms / 1000.0 * capacity_mbps;
    new_queue_ms = config_.queue_capacity_ms;
  }
  queue_ms_ = new_queue_ms;
  clock_s_ += config_.interval_s;
  ++step_;

  const double throughput_mbps = delivered_mbit / config_.interval_s;
  const double rtt_ms = config_.base_rtt_ms + queue_ms_ +
                        rng_->uniform(0.0, 1.0);  // measurement jitter
  const double loss =
      offered_mbit > 0.0 ? std::clamp(lost_mbit / offered_mbit, 0.0, 1.0)
                         : 0.0;

  env::shift_in(frame_[kSendRateMbps], rate_mbps_);
  env::shift_in(frame_[kAckRateMbps], throughput_mbps);
  env::shift_in(frame_[kRttMs], rtt_ms);
  env::shift_in(frame_[kLossFraction], loss);
  frame_[kCurrentRateMbps].set_scalar(rate_mbps_);

  const double reward = throughput_mbps -
                        config_.latency_penalty * (queue_ms_ / 1000.0) *
                            throughput_mbps -
                        config_.loss_penalty * loss;
  return env::DomainStep{reward, done()};
}

AimdController::AimdController(double increase_mbps, double decrease_factor)
    : increase_mbps_(increase_mbps), decrease_factor_(decrease_factor) {
  if (increase_mbps_ <= 0.0 || decrease_factor_ <= 0.0 ||
      decrease_factor_ >= 1.0) {
    throw std::invalid_argument("AimdController: bad parameters");
  }
}

std::size_t AimdController::act(const dsl::Bindings& frame) const {
  const double rate = std::max(frame[kCurrentRateMbps].as_scalar(), 1e-6);
  const std::vector<double>& loss = frame[kLossFraction].as_vector();
  const auto& actions = rate_actions();
  if (!loss.empty() && loss.back() > 0.0) {
    // Multiplicative decrease: the action nearest the decrease factor.
    std::size_t best = 0;
    for (std::size_t i = 1; i < actions.size(); ++i) {
      if (std::abs(actions[i] - decrease_factor_) <
          std::abs(actions[best] - decrease_factor_)) {
        best = i;
      }
    }
    return best;
  }
  // Additive increase: the discrete grid cannot express "+increase_mbps"
  // exactly, so always probe with the smallest up-multiplier that reaches
  // at least the additive target (never hold flat while loss-free).
  const double desired = (rate + increase_mbps_) / rate;
  std::size_t best = actions.size() - 1;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i] > 1.0 && actions[i] >= std::min(desired, actions.back())) {
      best = i;
      break;
    }
  }
  return best;
}

}  // namespace nada::cc
