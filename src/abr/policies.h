// Classic ABR control policies.
//
// The RL designs NADA searches over are one family; these are the classic
// hand-designed algorithms the ABR literature (and Pensieve's own
// evaluation) measures against:
//
//   FixedPolicy      — always the same ladder rung (sanity baseline)
//   BufferBased      — BBA (Huang et al.): reservoir/cushion mapping from
//                      buffer level to bitrate
//   RateBased        — harmonic-mean throughput prediction, pick the top
//                      rung below a safety fraction of it
//   RobustMpc        — model-predictive control (Yin et al.): enumerate
//                      bitrate plans over a short horizon against a
//                      conservative (error-discounted) throughput forecast
//                      and pick the plan maximizing QoE_lin
//
// All read the frame env::AbrEnv writes, over env::input_variables(), by
// env::AbrSlot — the same frame the RL agents' state programs read — so
// every policy runs on both the simulator and the emulation-fidelity
// session.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsl/binding_catalog.h"
#include "env/abr_env.h"
#include "video/video.h"

namespace nada::abr {

class AbrPolicy {
 public:
  virtual ~AbrPolicy() = default;

  /// Chooses the bitrate index for the next chunk from `frame`, a frame
  /// over env::input_variables().
  [[nodiscard]] virtual std::size_t choose(const dsl::Bindings& frame) = 0;

  /// Clears per-episode state (throughput estimators etc.).
  virtual void reset() {}

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Always selects `level`.
class FixedPolicy : public AbrPolicy {
 public:
  explicit FixedPolicy(std::size_t level) : level_(level) {}
  std::size_t choose(const dsl::Bindings& frame) override;
  [[nodiscard]] std::string name() const override {
    return "fixed-" + std::to_string(level_);
  }

 private:
  std::size_t level_;
};

/// BBA-style buffer mapping: below the reservoir stream the lowest rung;
/// above reservoir+cushion stream the highest; linear in between.
class BufferBasedPolicy : public AbrPolicy {
 public:
  explicit BufferBasedPolicy(double reservoir_s = 5.0, double cushion_s = 40.0);
  std::size_t choose(const dsl::Bindings& frame) override;
  [[nodiscard]] std::string name() const override { return "buffer-based"; }

 private:
  double reservoir_s_;
  double cushion_s_;
};

/// Harmonic-mean rate prediction with a safety factor; refuses to exceed
/// the lowest rung until the buffer covers a startup threshold.
class RateBasedPolicy : public AbrPolicy {
 public:
  explicit RateBasedPolicy(double safety = 0.85, double startup_buffer_s = 4.0);
  std::size_t choose(const dsl::Bindings& frame) override;
  [[nodiscard]] std::string name() const override { return "rate-based"; }

 private:
  double safety_;
  double startup_buffer_s_;
};

/// RobustMPC with exhaustive plan enumeration over a short horizon.
class RobustMpcPolicy : public AbrPolicy {
 public:
  explicit RobustMpcPolicy(std::size_t horizon = 3);
  std::size_t choose(const dsl::Bindings& frame) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return "robust-mpc"; }

 private:
  /// Conservative forecast: harmonic mean discounted by the recent maximum
  /// relative prediction error (the "robust" part of RobustMPC).
  [[nodiscard]] double forecast_mbps(const dsl::Bindings& frame);

  std::size_t horizon_;
  double last_forecast_mbps_ = 0.0;
  double max_error_ = 0.0;
};

/// Harmonic mean of the positive entries (0 if none).
[[nodiscard]] double harmonic_mean_positive(std::span<const double> xs);

/// Streams every test trace once with `policy` and returns the mean
/// per-chunk QoE (the same metric as rl::evaluate_agent).
[[nodiscard]] double evaluate_policy(AbrPolicy& policy,
                                     std::span<const trace::Trace> traces,
                                     const video::Video& video,
                                     env::Fidelity fidelity,
                                     std::uint64_t seed);

/// The standard baseline set, ready to evaluate.
[[nodiscard]] std::vector<std::unique_ptr<AbrPolicy>> standard_baselines();

}  // namespace nada::abr
