// TaskDomain: the environment abstraction the search funnel runs over.
//
// The funnel (generate -> pre-check -> batched probe -> early-stop -> full
// train -> rank) is domain-agnostic: rl::Trainer, rl::BatchProbeTrainer,
// and search::SearchJob only need episodes that step under a discrete action
// space, observations expressed as DSL bindings, and a handful of scalar
// hints. A TaskDomain packages those for one task — ABR streaming
// (env::AbrDomain) and congestion control (cc::CcDomain) today; a third
// domain is one subclass plus a binding catalog and a generator state
// space away.
//
// Determinism contract (the candidate store and the batched/serial probe
// equivalence both rest on it):
//   * constructing an Episode draws from `rng` exactly what the domain's
//     pre-abstraction code drew (ABR: one uniform trace choice for
//     training episodes, nothing for eval episodes),
//   * Episode::reset() draws the episode's stochastic start,
//   * step() draws only what the underlying simulator draws.
// Callers own the Rng; episodes keep a reference to it, so the Rng must
// outlive the episode.
#pragma once

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>

#include "dsl/binding_catalog.h"
#include "util/rng.h"

namespace nada::env {

/// Simulator fidelity. Domains without an emulation model treat both
/// values identically (see start_*_episode implementations).
enum class Fidelity {
  kSimulation,  ///< chunk-level / interval-level simulator
  kEmulation,   ///< ABR: slow-start + HTTP overhead model (paper Table 4)
};

/// One step's outcome, observation already lowered to DSL bindings.
struct DomainStep {
  dsl::Bindings observation;
  double reward = 0.0;
  bool done = false;
};

/// One running episode. reset() must be called before step().
class Episode {
 public:
  virtual ~Episode() = default;

  /// Starts the episode (drawing its stochastic start from the Rng the
  /// episode was created with) and returns the initial observation.
  [[nodiscard]] virtual dsl::Bindings reset() = 0;

  /// Applies a discrete action and advances one step.
  [[nodiscard]] virtual DomainStep step(std::size_t action) = 0;

  [[nodiscard]] virtual bool done() const = 0;
};

class TaskDomain {
 public:
  virtual ~TaskDomain() = default;

  /// Short domain token ("abr", "cc") naming the binding vocabulary.
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// The vocabulary programs for this domain are generated from and
  /// checked against.
  [[nodiscard]] virtual const dsl::BindingCatalog& catalog() const = 0;

  /// Discrete action count (ABR: ladder levels; CC: rate multipliers).
  [[nodiscard]] virtual std::size_t num_actions() const = 0;

  /// Steps per episode. Both current domains run fixed-length episodes;
  /// the batched probe trainer sizes its capture caches from this and
  /// enforces it after each rollout.
  [[nodiscard]] virtual std::size_t episode_length() const = 0;

  /// Resolves rl::TrainConfig::reward_scale == 0 ("auto"): a deterministic
  /// estimate of the per-step reward magnitude so policy/value gradients
  /// stay comparable across domains and configurations.
  [[nodiscard]] virtual double reward_scale_hint() const = 0;

  /// The domain's original hand-designed state function — the baseline the
  /// funnel trains for comparison (ABR: Pensieve's state).
  [[nodiscard]] virtual const std::string& baseline_state_source() const = 0;

  /// Starts a training episode, drawing the episode's environment choice
  /// (ABR: which train trace) from `rng`. `rng` must outlive the episode.
  [[nodiscard]] virtual std::unique_ptr<Episode> start_train_episode(
      Fidelity fidelity, util::Rng& rng) const = 0;

  /// Size of the held-out evaluation split (ABR: test traces).
  [[nodiscard]] virtual std::size_t num_eval_units() const = 0;

  /// Starts the eval episode for one unit of the held-out split. Draws
  /// nothing from `rng` at construction (reset() draws the start offset,
  /// keeping checkpoint evaluations comparable under a fixed eval seed).
  [[nodiscard]] virtual std::unique_ptr<Episode> start_eval_episode(
      std::size_t unit, Fidelity fidelity, util::Rng& rng) const = 0;

  /// Store-scope environment token. Distinct per domain so ABR and CC
  /// journals coexist in one store directory without aliasing ("starlink"
  /// vs "cc-starlink").
  [[nodiscard]] virtual std::string scope_env() const = 0;

  /// Appends the identity of the domain's data (traces, video, simulator
  /// parameters) to the pipeline's config-digest spec: two domains whose
  /// per-candidate results could differ must never digest equal.
  virtual void append_scope_spec(std::ostream& out) const = 0;
};

}  // namespace nada::env
