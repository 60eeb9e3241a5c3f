// The ABR streaming stack as a TaskDomain — the funnel's first domain.
//
// This module owns the ABR binding catalog (the canned and fuzz frames the
// pre-checks run programs on, over the vocabulary abr_env.h declares) and
// AbrDomain, which hands out AbrEnv episodes over (trace::Dataset,
// video::Video) to the generic funnel. The canned values and the fuzz draw
// sequence are the exact ones the pre-domain code used, so fingerprints,
// check verdicts, and reward curves are unchanged by the abstraction.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dsl/binding_catalog.h"
#include "env/abr_env.h"
#include "env/domain.h"
#include "trace/generator.h"
#include "util/rng.h"
#include "video/video.h"

namespace nada::env {

/// The ABR binding catalog over input_variables(). canned() holds
/// plausible mid-stream values; fuzz() draws from wide but physically
/// meaningful ranges (throughput up to hundreds of Mbps, chunk sizes up to
/// tens of MB).
[[nodiscard]] const dsl::BindingCatalog& abr_catalog();

/// One video streamed over one trace dataset, funnel-facing. Episodes are
/// AbrEnv runs: training episodes draw a uniform train-trace choice from
/// the caller's RNG, eval unit i is test trace i, and both draw their
/// start offset in reset() — the same draws, in the same order, as the
/// pre-domain training loop.
class AbrDomain final : public TaskDomain {
 public:
  /// Throws std::invalid_argument when either dataset split is empty.
  AbrDomain(const trace::Dataset& dataset, const video::Video& video);

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] const dsl::BindingCatalog& catalog() const override;
  [[nodiscard]] std::size_t num_actions() const override;
  [[nodiscard]] std::size_t episode_length() const override;
  [[nodiscard]] double reward_scale_hint() const override;
  [[nodiscard]] const std::string& baseline_state_source() const override;
  [[nodiscard]] std::unique_ptr<Episode> start_train_episode(
      Fidelity fidelity, util::Rng& rng) const override;
  [[nodiscard]] std::size_t num_eval_units() const override;
  [[nodiscard]] std::unique_ptr<Episode> start_eval_episode(
      std::size_t unit, Fidelity fidelity, util::Rng& rng) const override;
  [[nodiscard]] std::string scope_env() const override;
  void append_scope_spec(std::ostream& out) const override;

  [[nodiscard]] const trace::Dataset& dataset() const { return *dataset_; }
  [[nodiscard]] const video::Video& video() const { return *video_; }

 private:
  const trace::Dataset* dataset_;
  const video::Video* video_;
};

}  // namespace nada::env
