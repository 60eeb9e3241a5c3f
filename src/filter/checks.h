// NADA's pre-checks (§2.2), per-domain.
//
// Compilation check: a trial run of the candidate code — parse it, execute
// it on the domain catalog's canned observation, and require finite
// outputs and a stable state shape. Any exception rejects the candidate,
// mirroring the paper's "any code that triggers an exception is
// immediately excluded". Because the trial runs against the catalog of the
// domain the program was generated for, a program referencing another
// domain's vocabulary fails here.
//
// Normalization check: fuzz the state function with randomized
// observations drawn from the same catalog and reject it if any emitted
// feature's magnitude exceeds the threshold T (=100 in the paper). Applied
// to state functions only, not architectures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dsl/binding_catalog.h"
#include "dsl/state_program.h"
#include "nn/arch.h"

namespace nada::filter {

struct CheckResult {
  bool passed = false;
  std::string reason;  ///< empty when passed
  /// Nonzero when the failure was the VM's execution budget (the run
  /// exceeded this many cost units; see dsl::kDefaultInstructionBudget and
  /// docs/DSL.md). Diagnostic only — not journaled.
  std::uint64_t exceeded_budget = 0;

  [[nodiscard]] static CheckResult ok() { return {true, "", 0}; }
  [[nodiscard]] static CheckResult fail(std::string why) {
    return {false, std::move(why), 0};
  }
};

/// Default fuzz threshold from the paper.
inline constexpr double kNormalizationThreshold = 100.0;

/// Parses and trial-runs a state program against `catalog`'s observations.
/// On success returns the compiled program through `out` (if non-null).
CheckResult compilation_check(const std::string& source,
                              const dsl::BindingCatalog& catalog,
                              std::optional<dsl::StateProgram>* out = nullptr);

/// Fuzzes a compiled state program with `runs` randomized observations
/// from `catalog`.
CheckResult normalization_check(const dsl::StateProgram& program,
                                const dsl::BindingCatalog& catalog,
                                double threshold = kNormalizationThreshold,
                                std::size_t runs = 16,
                                std::uint64_t seed = 0x5eed);

/// Architecture "compilation" check: validates the spec against the state
/// signature, instantiates the network, and smoke-tests a forward pass.
CheckResult arch_compilation_check(const nn::ArchSpec& spec,
                                   const nn::StateSignature& signature,
                                   std::size_t num_actions = 6);

}  // namespace nada::filter
