#include "dsl/bytecode.h"

#include <atomic>
#include <cstring>
#include <string_view>
#include <unordered_map>

namespace nada::dsl {
namespace {

std::uint64_t next_program_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Single-pass walk over the program's nodes. Registers are SSA-style:
// every value-producing node gets a fresh register, so no instruction's
// operand can alias its destination and the VM may compute vector results
// in place. Let-bound names are pure aliases for the defining expression's
// register.
class Compiler {
 public:
  explicit Compiler(const Program& program) : program_(program) {}

  CompiledProgram compile() {
    const auto& statements = program_.statements();
    for (std::size_t i = 0; i < statements.size(); ++i) {
      const Statement& stmt = statements[i];
      statement_ = i;
      const std::uint32_t reg = eval(program_.expr(stmt.expr));
      if (stmt.kind == StatementKind::kLet) {
        let_regs_.push_back(reg);  // index: the let's ordinal
      } else {
        const auto row = static_cast<std::uint32_t>(out_.emit_names.size());
        out_.emit_names.emplace_back(program_.text(stmt.name));
        emit_instr({Op::kEmit, 0, line32(stmt.line), 0, reg, row, 0});
      }
    }
    // The tree-walk's row-count checks fire only after every statement has
    // executed (a mid-program error must win); the emit count is static,
    // so they lower to a trailing throw.
    if (out_.emit_names.empty()) {
      emit_instr({Op::kThrow, 0, 1, 0,
                  message("program emitted no state rows"), 0, 0});
    } else if (out_.emit_names.size() > 24) {
      emit_instr({Op::kThrow, 0, 1, 0,
                  message("program emitted more than 24 state rows"), 0, 0});
    }
    out_.id = next_program_id();
    return std::move(out_);
  }

 private:
  std::uint32_t eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber:
        return const_reg(e.number);

      case ExprKind::kVariable: {
        const std::string_view name = program_.text(e.name);
        if (const Statement* let = program_.binding(statement_, name)) {
          return let_regs_[let->ordinal];
        }
        // Unknown names cannot be rejected here: a reference inside a
        // never-taken ternary branch must not fail, matching the
        // tree-walk's lazy lookup. The load throws when actually executed
        // against a frame whose vocabulary lacks the name.
        const std::uint32_t input = input_slot(name);
        const std::uint32_t msg =
            message("undefined variable '" + std::string(name) + "' (line " +
                    std::to_string(e.line) + ")");
        const std::uint32_t dst = alloc_reg();
        emit_instr({Op::kLoadInput, 0, line32(e.line), dst, input, msg, 0});
        return dst;
      }

      case ExprKind::kUnary: {
        const std::uint32_t a = eval(program_.child(e, 0));
        const std::uint32_t dst = alloc_reg();
        emit_instr({Op::kUnary, static_cast<std::uint8_t>(e.unary_op),
                    line32(e.line), dst, a, 0, 0});
        return dst;
      }

      case ExprKind::kBinary: {
        const std::uint32_t a = eval(program_.child(e, 0));
        const std::uint32_t b = eval(program_.child(e, 1));
        const std::uint32_t dst = alloc_reg();
        emit_instr({Op::kBinary, static_cast<std::uint8_t>(e.binary_op),
                    line32(e.line), dst, a, b, 0});
        return dst;
      }

      case ExprKind::kTernary: {
        const std::uint32_t cond = eval(program_.child(e, 0));
        const std::uint32_t dst = alloc_reg();
        const std::size_t branch =
            emit_instr({Op::kBranchIfZero, 0, line32(e.line), 0, cond, 0, 0});
        const std::uint32_t then_reg = eval(program_.child(e, 1));
        emit_instr({Op::kCopy, 0, line32(e.line), dst, then_reg, 0, 0});
        const std::size_t jump =
            emit_instr({Op::kJump, 0, line32(e.line), 0, 0, 0, 0});
        out_.code[branch].b = static_cast<std::uint32_t>(out_.code.size());
        const std::uint32_t else_reg = eval(program_.child(e, 2));
        emit_instr({Op::kCopy, 0, line32(e.line), dst, else_reg, 0, 0});
        out_.code[jump].b = static_cast<std::uint32_t>(out_.code.size());
        return dst;
      }

      case ExprKind::kCall: {
        // The tree-walk validates name and arity BEFORE evaluating any
        // argument, so both lower to a throw that skips the children.
        const std::string name(program_.text(e.name));
        const int idx = builtin_index(name);
        if (idx < 0) {
          return throw_expr("unknown function '" + name + "' (line " +
                                std::to_string(e.line) + ")",
                            e.line);
        }
        const Builtin& builtin = *builtin_table()[idx].builtin;
        if (e.child_count < builtin.min_args ||
            e.child_count > builtin.max_args) {
          return throw_expr(
              "function '" + name + "' expects " +
                  std::to_string(builtin.min_args) +
                  (builtin.max_args != builtin.min_args
                       ? ".." + std::to_string(builtin.max_args)
                       : "") +
                  " arguments, got " + std::to_string(e.child_count) +
                  " (line " + std::to_string(e.line) + ")",
              e.line);
        }
        std::vector<std::uint32_t> args;
        args.reserve(e.child_count);
        for (const ExprId child : program_.children(e)) {
          args.push_back(eval(program_.expr(child)));
        }
        const std::uint32_t offset = pool(args);
        const std::uint32_t dst = alloc_reg();
        emit_instr({Op::kCall, 0, line32(e.line), dst,
                    static_cast<std::uint32_t>(idx), offset,
                    static_cast<std::uint32_t>(args.size())});
        return dst;
      }

      case ExprKind::kIndex: {
        const std::uint32_t base = eval(program_.child(e, 0));
        const std::uint32_t index = eval(program_.child(e, 1));
        const std::uint32_t dst = alloc_reg();
        emit_instr({Op::kIndex, 0, line32(e.line), dst, base, index, 0});
        return dst;
      }

      case ExprKind::kVectorLiteral: {
        // The tree-walk checks each element is a scalar as it is
        // evaluated, interleaved with the evaluation of the next element,
        // so the check must sit right after each element's code.
        std::vector<std::uint32_t> elems;
        elems.reserve(e.child_count);
        const std::uint32_t msg =
            message("vector literal element must be a scalar");
        for (const ExprId id : program_.children(e)) {
          const Expr& child = program_.expr(id);
          const std::uint32_t reg = eval(child);
          emit_instr(
              {Op::kCheckScalar, 0, line32(child.line), 0, reg, msg, 0});
          elems.push_back(reg);
        }
        const std::uint32_t offset = pool(elems);
        const std::uint32_t dst = alloc_reg();
        emit_instr({Op::kVector, 0, line32(e.line), dst, 0, offset,
                    static_cast<std::uint32_t>(elems.size())});
        return dst;
      }
    }
    return throw_expr("unknown expression kind", e.line);
  }

  std::uint32_t alloc_reg() { return out_.num_registers++; }

  std::size_t emit_instr(Instr instr) {
    out_.code.push_back(instr);
    return out_.code.size() - 1;
  }

  static std::uint32_t line32(std::size_t line) {
    return static_cast<std::uint32_t>(line);
  }

  std::uint32_t message(std::string text) {
    if (const auto it = message_ids_.find(text); it != message_ids_.end()) {
      return it->second;
    }
    const auto idx = static_cast<std::uint32_t>(out_.messages.size());
    message_ids_[text] = idx;
    out_.messages.push_back(std::move(text));
    return idx;
  }

  std::uint32_t const_reg(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    if (const auto it = const_regs_.find(bits); it != const_regs_.end()) {
      return it->second;
    }
    const std::uint32_t reg = alloc_reg();
    out_.constants.emplace_back(reg, Value(v));
    const_regs_[bits] = reg;
    return reg;
  }

  std::uint32_t input_slot(std::string_view name) {
    if (const auto it = input_ids_.find(name); it != input_ids_.end()) {
      return it->second;
    }
    const auto idx = static_cast<std::uint32_t>(out_.inputs.size());
    out_.inputs.emplace_back(name);
    input_ids_[name] = idx;
    return idx;
  }

  /// Lowers an error the tree-walk raises at this node's evaluation point.
  /// The returned register is never written; code after the throw in the
  /// same branch arm is unreachable.
  std::uint32_t throw_expr(std::string msg, std::size_t line) {
    const std::uint32_t dst = alloc_reg();
    emit_instr({Op::kThrow, 0, line32(line), 0, message(std::move(msg)), 0, 0});
    return dst;
  }

  std::uint32_t pool(const std::vector<std::uint32_t>& regs) {
    const auto offset = static_cast<std::uint32_t>(out_.operands.size());
    out_.operands.insert(out_.operands.end(), regs.begin(), regs.end());
    return offset;
  }

  const Program& program_;
  std::size_t statement_ = 0;  ///< the statement being lowered
  std::vector<std::uint32_t> let_regs_;  ///< by let ordinal
  CompiledProgram out_;
  /// Keys view the program's source, which outlives the compiler.
  std::unordered_map<std::string_view, std::uint32_t> input_ids_;
  std::unordered_map<std::string, std::uint32_t> message_ids_;
  std::unordered_map<std::uint64_t, std::uint32_t> const_regs_;
};

}  // namespace

CompiledProgram compile_program(const Program& program) {
  return Compiler(program).compile();
}

}  // namespace nada::dsl
