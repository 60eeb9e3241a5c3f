// Register VM for compiled NadaScript (see bytecode.h) — the library's only
// DSL engine.
//
// A Vm owns a reusable register file, a preallocated StateMatrix, and the
// scratch buffers execution needs, so running the same program across an
// episode performs zero heap allocation for scalar operations and reuses
// vector capacity steady-state. Inputs bind by slot: the Vm resolves a
// program's input names against a frame's vocabulary (binding_catalog.h)
// only when the program or the vocabulary differs from the last run's,
// and every run points each input load at its frame slot. Vector results are computed in place
// (registers are SSA — operands never alias destinations) with the
// broadcast loops and error messages of the reference tree-walk oracle
// (tests/dsl_tree_oracle.h, pinned bit-identical by tests/dsl_vm_test.cpp);
// builtin calls dispatch through the flat builtin_table() to the same
// Builtin::fn implementations the oracle uses (dsl/builtins.h).
//
// The VM also enforces an execution budget: at million-candidate scale the
// generator's output is untrusted input, and NadaScript's only unbounded
// axis is vector growth (e.g. repeated `let x = concat(x, x)` doubles a
// register per statement). Each run accumulates cost units — one per
// instruction plus the element count of every vector produced — and a run
// that exceeds the budget throws BudgetError, which the pre-checks surface
// as a descriptive failure instead of an unbounded stall. The budget is
// kDefaultInstructionBudget, generous next to the few hundred units a real
// candidate program costs per run.
//
// Threading: a Vm is single-threaded mutable state. Share a
// CompiledProgram across threads freely; give each thread its own Vm.
#pragma once

#include <cstdint>
#include <vector>

#include "dsl/binding_catalog.h"
#include "dsl/bytecode.h"
#include "dsl/value.h"

namespace nada::dsl {

/// Thrown when one run exceeds the execution budget. Derives RuntimeError,
/// so every existing catch — the pre-checks, the probe trainers — treats
/// it as a candidate failure.
class BudgetError : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

/// Per-run budget in cost units (instructions + vector elements produced).
inline constexpr std::uint64_t kDefaultInstructionBudget = 1'000'000;

class Vm {
 public:
  /// Cumulative execution counters, e.g. for obs `dsl.exec.*` metrics.
  struct Stats {
    std::uint64_t runs = 0;
    std::uint64_t instructions = 0;  ///< instructions executed
    std::uint64_t cost_units = 0;    ///< instructions + vector elements
  };

  /// Executes `program` against the frame `inputs` and returns the
  /// VM-owned state matrix (valid until the next run). Throws RuntimeError
  /// exactly where and with exactly the message the reference tree-walk
  /// would, and BudgetError when the run exceeds the budget. `program` and
  /// `inputs` must outlive the returned reference (registers point into
  /// both).
  const StateMatrix& run(const CompiledProgram& program,
                         const Bindings& inputs);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Per-Vm budget (tests); 0 restores kDefaultInstructionBudget.
  void set_budget(std::uint64_t cost_units) {
    budget_ = cost_units != 0 ? cost_units : kDefaultInstructionBudget;
  }

 private:
  void prepare(const CompiledProgram& program, const Vocabulary& vocabulary);

  std::uint64_t prepared_id_ = 0;        ///< CompiledProgram::id
  std::uint64_t bound_vocabulary_ = 0;   ///< Vocabulary::id of input_slots_
  std::vector<Value> storage_;           ///< backing store per register
  std::vector<const Value*> view_;       ///< register -> current value
  std::vector<std::size_t> input_slots_; ///< input -> frame slot or kUnbound
  std::vector<Value> call_args_;         ///< builtin argument scratch
  StateMatrix matrix_;
  Stats stats_;
  std::uint64_t budget_ = kDefaultInstructionBudget;
};

}  // namespace nada::dsl
