// Flat register bytecode for NadaScript.
//
// A tree-walk re-resolves every variable through a string hash map and
// allocates fresh Values per AST node, per step — and the state program is
// the per-step inner loop of precheck, probe, and full training.
// compile_program() lowers the parsed AST once into straight-line register
// code: variable references become indices into the program's input-name
// table or local registers, builtin calls become direct indices into the
// flat builtin_table(), numeric literals are pooled and bound to registers
// up front, and let-bindings are zero-cost register aliases. Compilation
// needs no domain: dsl::Vm (vm.h) binds the input names to a frame's slots
// when it runs the result against a reusable register file.
//
// Lowering is total: it never rejects a program. Errors the language
// raises lazily — an undefined variable, an unknown function, a bad arity
// — are lowered to instructions that raise the exact same RuntimeError
// message at the exact same evaluation point, because a reference inside
// a never-taken ternary branch must NOT fail (it is never evaluated) while
// the same reference in straight-line code must. The reference tree-walk
// oracle in tests/ defines those semantics, and the VM matches it bit for
// bit, failure messages included: store journals record failure reasons,
// so any drift in a message changes journal bytes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dsl/ast.h"
#include "dsl/builtins.h"
#include "dsl/value.h"

namespace nada::dsl {

enum class Op : std::uint8_t {
  kLoadInput,     ///< regs[dst] <- frame[slot(inputs[a])]; unbound: messages[b]
  kUnary,         ///< regs[dst] <- UnaryOp(sub)(regs[a])
  kBinary,        ///< regs[dst] <- BinaryOp(sub)(regs[a], regs[b])
  kCall,          ///< regs[dst] <- builtin_table()[a](operands[b..b+c))
  kIndex,         ///< regs[dst] <- regs[a][regs[b]]
  kVector,        ///< regs[dst] <- [regs[operands[b]], ...) (c elements)
  kCheckScalar,   ///< require regs[a] scalar, else throw messages[b]
  kBranchIfZero,  ///< require regs[a] scalar ("ternary condition"); pc=b if 0
  kJump,          ///< pc = b
  kCopy,          ///< regs[dst] aliases regs[a] (ternary result merge)
  kEmit,          ///< state row b <- regs[a] (with the emit-time checks)
  kThrow,         ///< throw RuntimeError(messages[a])
};

/// One instruction. `sub` holds the UnaryOp/BinaryOp for kUnary/kBinary;
/// `line` is the source line errors report.
struct Instr {
  Op op = Op::kThrow;
  std::uint8_t sub = 0;
  std::uint32_t line = 1;
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
};

/// A lowered program: straight-line register code plus its pools. Owned by
/// StateProgram (shared_ptr) and immutable after compilation, so many
/// threads may execute one CompiledProgram concurrently, each with its own
/// Vm.
struct CompiledProgram {
  std::vector<Instr> code;
  /// Argument-register pools for kCall / kVector (b = offset, c = count).
  std::vector<std::uint32_t> operands;
  /// Pooled numeric literals, deduped by bit pattern; each pair binds a
  /// reserved register to its Value before execution starts.
  std::vector<std::pair<std::uint32_t, Value>> constants;
  /// Unique observation input names in first-reference order. The Vm
  /// resolves them to slots once per frame vocabulary; a name outside the
  /// vocabulary fails only when its kLoadInput executes, as in the
  /// tree-walk.
  std::vector<std::string> inputs;
  /// Emit-row names in emission order; the VM preallocates the
  /// StateMatrix from this.
  std::vector<std::string> emit_names;
  /// Prebuilt error strings for kLoadInput / kCheckScalar / kThrow.
  std::vector<std::string> messages;
  std::uint32_t num_registers = 0;
  /// Process-unique id, used by Vm to detect program switches without
  /// relying on pointer identity (which can alias after frees).
  std::uint64_t id = 0;
};

/// Lowers a parsed program. Never throws on well-parsed input: semantic
/// errors are lowered to runtime throws so the VM's failure behaviour
/// matches the reference tree-walk exactly.
[[nodiscard]] CompiledProgram compile_program(const Program& program);

}  // namespace nada::dsl
