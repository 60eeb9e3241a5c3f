#include "abr/policies.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats.h"

namespace nada::abr {
namespace {

std::size_t level_index_of_kbps(std::span<const double> ladder_kbps,
                                double kbps) {
  for (std::size_t i = 0; i < ladder_kbps.size(); ++i) {
    if (ladder_kbps[i] == kbps) return i;
  }
  return 0;
}

}  // namespace

double harmonic_mean_positive(std::span<const double> xs) {
  double inv_sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x > 0.0) {
      inv_sum += 1.0 / x;
      ++n;
    }
  }
  return n > 0 ? static_cast<double>(n) / inv_sum : 0.0;
}

std::size_t FixedPolicy::choose(const dsl::Bindings& frame) {
  if (level_ >= frame[env::kBitrateLevelsKbps].as_vector().size()) {
    throw std::out_of_range("FixedPolicy: level outside ladder");
  }
  return level_;
}

BufferBasedPolicy::BufferBasedPolicy(double reservoir_s, double cushion_s)
    : reservoir_s_(reservoir_s), cushion_s_(cushion_s) {
  if (reservoir_s_ < 0.0 || cushion_s_ <= 0.0) {
    throw std::invalid_argument("BufferBasedPolicy: bad parameters");
  }
}

std::size_t BufferBasedPolicy::choose(const dsl::Bindings& frame) {
  const std::size_t levels = frame[env::kBitrateLevelsKbps].as_vector().size();
  const double buffer_s = frame[env::kBufferSizeS].as_scalar();
  if (buffer_s <= reservoir_s_) return 0;
  if (buffer_s >= reservoir_s_ + cushion_s_) return levels - 1;
  const double fraction = (buffer_s - reservoir_s_) / cushion_s_;
  return static_cast<std::size_t>(fraction * static_cast<double>(levels - 1) +
                                  0.5);
}

RateBasedPolicy::RateBasedPolicy(double safety, double startup_buffer_s)
    : safety_(safety), startup_buffer_s_(startup_buffer_s) {
  if (safety_ <= 0.0 || safety_ > 1.0) {
    throw std::invalid_argument("RateBasedPolicy: safety outside (0, 1]");
  }
}

std::size_t RateBasedPolicy::choose(const dsl::Bindings& frame) {
  const double predicted_mbps =
      harmonic_mean_positive(frame[env::kThroughputMbps].as_vector());
  if (predicted_mbps <= 0.0 ||
      frame[env::kBufferSizeS].as_scalar() < startup_buffer_s_) {
    return 0;
  }
  const double budget_kbps = predicted_mbps * 1000.0 * safety_;
  const std::vector<double>& ladder =
      frame[env::kBitrateLevelsKbps].as_vector();
  std::size_t level = 0;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i] <= budget_kbps) level = i;
  }
  return level;
}

RobustMpcPolicy::RobustMpcPolicy(std::size_t horizon) : horizon_(horizon) {
  if (horizon_ == 0 || horizon_ > 5) {
    throw std::invalid_argument("RobustMpcPolicy: horizon outside [1, 5]");
  }
}

void RobustMpcPolicy::reset() {
  last_forecast_mbps_ = 0.0;
  max_error_ = 0.0;
}

double RobustMpcPolicy::forecast_mbps(const dsl::Bindings& frame) {
  const std::vector<double>& throughput =
      frame[env::kThroughputMbps].as_vector();
  const double actual = throughput.empty() ? 0.0 : throughput.back();
  if (last_forecast_mbps_ > 0.0 && actual > 0.0) {
    const double error =
        std::abs(last_forecast_mbps_ - actual) / actual;
    // Track the recent worst error with slow decay.
    max_error_ = std::max(error, max_error_ * 0.9);
  }
  const double harmonic = harmonic_mean_positive(throughput);
  last_forecast_mbps_ = harmonic;
  return harmonic / (1.0 + max_error_);
}

std::size_t RobustMpcPolicy::choose(const dsl::Bindings& frame) {
  const std::vector<double>& ladder =
      frame[env::kBitrateLevelsKbps].as_vector();
  const std::vector<double>& next_bytes =
      frame[env::kNextChunkSizesBytes].as_vector();
  const std::size_t levels = ladder.size();
  const double forecast = forecast_mbps(frame);
  if (forecast <= 0.0) return 0;

  const double buffer_s = frame[env::kBufferSizeS].as_scalar();
  const double chunk_s = frame[env::kChunkLengthS].as_scalar();
  const double mu = ladder.back() / 1000.0;  // QoE_lin penalty
  const std::size_t last_level = level_index_of_kbps(
      ladder, frame[env::kLastBitrateKbps].as_scalar());
  const auto chunks_left =
      static_cast<std::size_t>(frame[env::kChunksRemaining].as_scalar());
  const std::size_t steps = std::min(horizon_, std::max<std::size_t>(
                                                   chunks_left, 1));

  // Enumerate all plans of length `steps` (levels^steps <= 6^5 = 7776).
  std::size_t plan_count = 1;
  for (std::size_t i = 0; i < steps; ++i) plan_count *= levels;

  double best_value = -1e18;
  std::size_t best_first = 0;
  for (std::size_t plan = 0; plan < plan_count; ++plan) {
    double buffer = buffer_s;
    double value = 0.0;
    std::size_t prev = last_level;
    std::size_t code = plan;
    std::size_t first = code % levels;
    for (std::size_t step = 0; step < steps; ++step) {
      const std::size_t level = code % levels;
      code /= levels;
      // Future chunk sizes approximated by nominal encode size; the next
      // chunk uses the observation's exact sizes.
      const double bytes =
          step == 0 && level < next_bytes.size() && next_bytes[level] > 0.0
              ? next_bytes[level]
              : ladder[level] * 1000.0 / 8.0 * chunk_s;
      const double download_s = bytes * 8.0 / 1e6 / forecast;
      const double rebuffer = std::max(download_s - buffer, 0.0);
      buffer = std::max(buffer - download_s, 0.0) + chunk_s;
      const double quality = ladder[level] / 1000.0;
      const double prev_quality = ladder[prev] / 1000.0;
      value += quality - mu * rebuffer - std::abs(quality - prev_quality);
      prev = level;
    }
    if (value > best_value) {
      best_value = value;
      best_first = first;
    }
  }
  return best_first;
}

double evaluate_policy(AbrPolicy& policy,
                       std::span<const trace::Trace> traces,
                       const video::Video& video, env::Fidelity fidelity,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  util::RunningStats rewards;
  for (const auto& tr : traces) {
    env::AbrEnv env(tr, video, fidelity, rng);
    const dsl::Bindings& frame = env.reset();
    policy.reset();
    while (!env.done()) rewards.add(env.step(policy.choose(frame)).reward);
  }
  return rewards.mean();
}

std::vector<std::unique_ptr<AbrPolicy>> standard_baselines() {
  std::vector<std::unique_ptr<AbrPolicy>> policies;
  policies.push_back(std::make_unique<FixedPolicy>(0));
  policies.push_back(std::make_unique<BufferBasedPolicy>());
  policies.push_back(std::make_unique<RateBasedPolicy>());
  policies.push_back(std::make_unique<RobustMpcPolicy>());
  return policies;
}

}  // namespace nada::abr
