// PolicyAgent: a state program plus an actor-critic network.
//
// A NADA candidate design is the pair (state function, architecture); the
// agent binds the two together: it runs the state program on each raw
// observation (a DSL input frame, so any TaskDomain's observations fit)
// and feeds the resulting matrix to the network. The network's input
// signature is the program's row lengths under the domain catalog's canned
// observation, served from the signature cache on the compiled program
// (primed by filter::compilation_check's trial run), so constructing an
// agent does not execute the program.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dsl/binding_catalog.h"
#include "dsl/state_program.h"
#include "dsl/vm.h"
#include "nn/arch.h"
#include "util/rng.h"

namespace nada::rl {

class PolicyAgent {
 public:
  /// Builds the network for `program`'s state shape under `catalog`'s
  /// canned observation. Throws dsl::RuntimeError if the program fails its
  /// trial run and nn::ArchError if the spec cannot be instantiated for
  /// the resulting signature.
  PolicyAgent(const dsl::StateProgram& program, const nn::ArchSpec& spec,
              std::size_t num_actions, const dsl::BindingCatalog& catalog,
              util::Rng& rng);

  struct Decision {
    std::size_t action = 0;
    nn::Vec probs;
    double value = 0.0;
  };

  /// Runs the state program and the network; samples the action from the
  /// policy when `sample` is true, otherwise picks the argmax.
  Decision decide(const dsl::Bindings& obs, bool sample, util::Rng& rng);

  /// Runs the state program on `obs` through the agent-owned Vm and
  /// returns the Vm-owned matrix, valid until the next eval_state call and
  /// while `obs` lives. This is the per-step inner loop: inputs bind by
  /// slot, scalar ops perform no heap allocation, and the matrix/row
  /// buffers are reused across steps.
  const dsl::StateMatrix& eval_state(const dsl::Bindings& obs);

  /// `matrix`'s rows copied into the agent-owned network-row buffers,
  /// whose capacity is reused across steps.
  const std::vector<nn::Vec>& network_rows(const dsl::StateMatrix& matrix);

  /// Cumulative Vm counters; see obs `dsl.exec.*`.
  [[nodiscard]] const dsl::Vm::Stats& exec_stats() const {
    return vm_.stats();
  }

  [[nodiscard]] nn::ActorCriticNet& net() { return *net_; }
  [[nodiscard]] const dsl::StateProgram& program() const { return *program_; }
  [[nodiscard]] const nn::StateSignature& signature() const { return sig_; }

 private:
  const dsl::StateProgram* program_;
  nn::StateSignature sig_;
  std::unique_ptr<nn::ActorCriticNet> net_;
  dsl::Vm vm_;                      ///< agent-owned: agents are thread-confined
  std::vector<nn::Vec> row_cache_;  ///< network_rows scratch
};

/// Derives the network input signature from a trial run of the program on
/// `catalog`'s canned observation.
[[nodiscard]] nn::StateSignature derive_signature(
    const dsl::StateProgram& program, const dsl::BindingCatalog& catalog);

}  // namespace nada::rl
