// Congestion control as a first-class TaskDomain — the funnel's second
// domain, realizing the paper's §5 extension plan.
//
// CcDomain hands out cc::CcEnv episodes to env::TaskDomain's callers:
// episodes are steps_per_episode monitor intervals over one capacity trace
// drawn from a trace::Dataset (the same generators that model
// FCC/Starlink/4G/5G capacity for ABR model bottleneck capacity here),
// actions are the Aurora-style rate multipliers, and each CcEnv writes its
// observation in place into the frame it owns. With this domain the entire
// funnel — generate -> pre-check -> probe -> early-stop -> full train ->
// rank, store checkpointing included — runs over CC through exactly the
// code path ABR uses.
#pragma once

#include <cstddef>
#include <string>

#include "cc/cc_env.h"
#include "cc/cc_state.h"
#include "env/domain.h"
#include "trace/generator.h"

namespace nada::cc {

class CcDomain final : public env::TaskDomain {
 public:
  /// `dataset` supplies bottleneck-capacity traces (train split for
  /// training episodes, test split for evaluation). Throws
  /// std::invalid_argument when either split is empty or the config is
  /// degenerate.
  CcDomain(const trace::Dataset& dataset, CcConfig config = CcConfig{});

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] const dsl::BindingCatalog& catalog() const override;
  [[nodiscard]] std::size_t num_actions() const override;
  [[nodiscard]] std::size_t episode_length() const override;
  [[nodiscard]] double reward_scale_hint() const override;
  [[nodiscard]] const std::string& baseline_state_source() const override;
  /// CC has no emulation model: both fidelities run the same simulator.
  [[nodiscard]] std::unique_ptr<env::Episode> start_train_episode(
      env::Fidelity fidelity, util::Rng& rng) const override;
  [[nodiscard]] std::size_t num_eval_units() const override;
  [[nodiscard]] std::unique_ptr<env::Episode> start_eval_episode(
      std::size_t unit, env::Fidelity fidelity, util::Rng& rng) const override;
  [[nodiscard]] std::string scope_env() const override;
  void append_scope_spec(std::ostream& out) const override;

  [[nodiscard]] const trace::Dataset& dataset() const { return *dataset_; }
  [[nodiscard]] const CcConfig& config() const { return config_; }

 private:
  const trace::Dataset* dataset_;
  CcConfig config_;
};

}  // namespace nada::cc
