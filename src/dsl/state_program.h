// StateProgram: a compiled NadaScript state function.
//
// This is the unit NADA searches over for the "state representation"
// component. A program maps a raw observation — a frame of input bindings
// over the domain's vocabulary (binding_catalog.h) — to the state matrix
// the actor-critic network consumes. The language itself is
// domain-agnostic: the same DSL expresses ABR state functions over
// throughput/buffer histories and CC state functions over rate/RTT/loss
// histories; only the binding vocabulary changes (src/env and src/cc own
// those vocabularies), and a program compiles without one.
//
// Execution: compile() parses the source AND lowers it to register
// bytecode (bytecode.h); run() executes that bytecode on the VM (vm.h),
// the only engine, which binds the program's inputs to the frame's slots.
// The parsed Program, which owns the source text, stays available through
// program() for the canonical serializer and for the reference tree-walk
// oracle in tests/, which the VM is pinned bit-identical to — same
// matrices, same error messages, hence the same journaled failure reasons.
//
// The original Pensieve state is provided in this language
// (pensieve_state_source) and serves as the ABR seed design.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dsl/ast.h"
#include "dsl/binding_catalog.h"
#include "dsl/bytecode.h"
#include "dsl/value.h"

namespace nada::dsl {

class StateProgram {
 public:
  /// Parses and lowers `source`; throws CompileError on syntax errors and
  /// on expressions nested past the parser's depth cap. Lowering never
  /// rejects a parseable program (semantic errors surface at run time;
  /// see bytecode.h).
  [[nodiscard]] static StateProgram compile(std::string source);

  /// Runs against one observation frame; throws RuntimeError on evaluation
  /// errors, including references to variables outside the frame's
  /// vocabulary, and BudgetError when a run exceeds the execution budget.
  [[nodiscard]] StateMatrix run(const Bindings& inputs) const;

  [[nodiscard]] const std::string& source() const {
    return program_.source();
  }
  [[nodiscard]] const Program& program() const { return program_; }

  /// The lowered bytecode. Immutable and shared_ptr-owned: hot paths that
  /// keep their own Vm (rl::PolicyAgent) execute this directly.
  [[nodiscard]] const CompiledProgram& code() const { return *code_; }

  /// Row lengths of this program's state matrix under `catalog`'s canned
  /// observation — the network input signature. Computed at most once per
  /// (program, catalog) and cached on the program, so agent construction
  /// does not re-run the program (filter::compilation_check primes the
  /// cache from its trial run). Thread-safe: pre-check workers compile and
  /// probe the same program concurrently.
  [[nodiscard]] std::vector<std::size_t> signature_row_lengths(
      const BindingCatalog& catalog) const;

  /// Seeds the signature cache with row lengths already computed from a
  /// run on `catalog`'s canned observation (the compilation check's trial
  /// run), so later signature_row_lengths calls are lookup-only.
  void prime_signature(const BindingCatalog& catalog,
                       std::vector<std::size_t> lengths) const;

 private:
  explicit StateProgram(Program program);

  // The signature cache outlives moves of the StateProgram (the store
  // pipeline moves compiled programs into per-candidate slots) and must be
  // lockable from const methods on shared instances, hence a shared_ptr
  // to a heap-allocated mutex-guarded record.
  struct SignatureCache {
    std::mutex mu;
    const BindingCatalog* catalog = nullptr;
    std::vector<std::size_t> lengths;
  };

  Program program_;
  std::shared_ptr<const CompiledProgram> code_;
  std::shared_ptr<SignatureCache> signature_cache_;
};

/// The original Pensieve state representation, expressed in NadaScript:
/// six rows matching Figure 2 of the paper (last quality, buffer,
/// throughput history, download-time history, next chunk sizes, chunks
/// remaining) with Pensieve's normalization constants.
[[nodiscard]] const std::string& pensieve_state_source();

}  // namespace nada::dsl
