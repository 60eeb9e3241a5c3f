#include "dsl/vm.h"

#include <cmath>
#include <cstdlib>
#include <string>

#include "dsl/builtins.h"

namespace nada::dsl {
namespace {

// Mirrors the reference tree-walk's require_scalar exactly (message
// identity matters: failure reasons are journaled by the store, so a
// changed message changes journal bytes).
double require_scalar(const Value& v, const char* what) {
  if (!v.is_scalar()) {
    throw RuntimeError(std::string(what) + " must be a scalar");
  }
  return v.as_scalar();
}

// One element of a broadcast binary op — the same per-element lambdas the
// tree-walk passes to broadcast_binary, including the checked div/mod.
// kAnd/kOr never reach here (they have scalar-only semantics with a
// short-circuited operand check; see Vm::run).
double apply_binary(BinaryOp op, double a, double b) {
  switch (op) {
    case BinaryOp::kAdd: return a + b;
    case BinaryOp::kSub: return a - b;
    case BinaryOp::kMul: return a * b;
    case BinaryOp::kDiv:
      if (std::abs(b) < 1e-12) throw RuntimeError("division by zero");
      return a / b;
    case BinaryOp::kMod:
      if (std::abs(b) < 1e-12) throw RuntimeError("modulo by zero");
      return std::fmod(a, b);
    case BinaryOp::kLess: return a < b ? 1.0 : 0.0;
    case BinaryOp::kGreater: return a > b ? 1.0 : 0.0;
    case BinaryOp::kLessEq: return a <= b ? 1.0 : 0.0;
    case BinaryOp::kGreaterEq: return a >= b ? 1.0 : 0.0;
    case BinaryOp::kEq: return a == b ? 1.0 : 0.0;
    case BinaryOp::kNotEq: return a != b ? 1.0 : 0.0;
    case BinaryOp::kAnd:
    case BinaryOp::kOr: break;
  }
  throw RuntimeError("unknown binary operator");
}

// Broadcast loop with the operator dispatched ONCE instead of per element.
// Operands read through pointer+stride (stride 0 broadcasts a scalar), and
// the checked ops throw at the first offending element — the same element
// order as broadcast_binary, so the surviving message is identical.
void broadcast_op(BinaryOp op, const double* lp, std::size_t ls,
                  const double* rp, std::size_t rs, double* out,
                  std::size_t n) {
  switch (op) {
    case BinaryOp::kAdd:
      for (std::size_t i = 0; i < n; ++i) out[i] = lp[i * ls] + rp[i * rs];
      return;
    case BinaryOp::kSub:
      for (std::size_t i = 0; i < n; ++i) out[i] = lp[i * ls] - rp[i * rs];
      return;
    case BinaryOp::kMul:
      for (std::size_t i = 0; i < n; ++i) out[i] = lp[i * ls] * rp[i * rs];
      return;
    case BinaryOp::kDiv:
      for (std::size_t i = 0; i < n; ++i) {
        const double b = rp[i * rs];
        if (std::abs(b) < 1e-12) throw RuntimeError("division by zero");
        out[i] = lp[i * ls] / b;
      }
      return;
    case BinaryOp::kMod:
      for (std::size_t i = 0; i < n; ++i) {
        const double b = rp[i * rs];
        if (std::abs(b) < 1e-12) throw RuntimeError("modulo by zero");
        out[i] = std::fmod(lp[i * ls], b);
      }
      return;
    case BinaryOp::kLess:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = lp[i * ls] < rp[i * rs] ? 1.0 : 0.0;
      }
      return;
    case BinaryOp::kGreater:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = lp[i * ls] > rp[i * rs] ? 1.0 : 0.0;
      }
      return;
    case BinaryOp::kLessEq:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = lp[i * ls] <= rp[i * rs] ? 1.0 : 0.0;
      }
      return;
    case BinaryOp::kGreaterEq:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = lp[i * ls] >= rp[i * rs] ? 1.0 : 0.0;
      }
      return;
    case BinaryOp::kEq:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = lp[i * ls] == rp[i * rs] ? 1.0 : 0.0;
      }
      return;
    case BinaryOp::kNotEq:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = lp[i * ls] != rp[i * rs] ? 1.0 : 0.0;
      }
      return;
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      break;
  }
  throw RuntimeError("unknown binary operator");
}

// Accumulates the run's instruction/cost counters in locals (kept in
// registers by the run loop) and flushes them into the shared Stats on
// every exit path, thrown errors included.
struct StatsFlush {
  Vm::Stats& stats;
  std::uint64_t instructions = 0;
  std::uint64_t cost_units = 0;
  ~StatsFlush() {
    stats.instructions += instructions;
    stats.cost_units += cost_units;
  }
};

}  // namespace

std::uint64_t instruction_budget() {
  static const std::uint64_t kBudget = [] {
    if (const char* env = std::getenv("NADA_DSL_BUDGET")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && v > 0) {
        return static_cast<std::uint64_t>(v);
      }
    }
    return kDefaultInstructionBudget;
  }();
  return kBudget;
}

void Vm::prepare(const CompiledProgram& program) {
  if (prepared_id_ == program.id) return;
  storage_.resize(program.num_registers);
  view_.assign(program.num_registers, nullptr);
  // Constant registers point straight into the (immutable, shared_ptr-
  // owned) CompiledProgram; they stay bound for as long as this program
  // stays prepared.
  for (const auto& [reg, value] : program.constants) view_[reg] = &value;
  input_ptrs_.assign(program.inputs.size(), nullptr);
  matrix_.rows.resize(program.emit_names.size());
  for (std::size_t i = 0; i < program.emit_names.size(); ++i) {
    matrix_.rows[i].name = program.emit_names[i];
  }
  prepared_id_ = program.id;
}

const StateMatrix& Vm::run(const CompiledProgram& program,
                           const Bindings& inputs) {
  prepare(program);
  // Inputs resolve once per run (the tree-walk pays a hash lookup per
  // reference per step). A missing name is NOT an error yet — the
  // tree-walk only fails when the reference is evaluated, so a reference
  // in a never-taken branch must stay silent.
  for (std::size_t i = 0; i < program.inputs.size(); ++i) {
    const auto it = inputs.find(program.inputs[i].name);
    input_ptrs_[i] = it == inputs.end() ? nullptr : &it->second;
  }

  const std::uint64_t budget =
      budget_override_ != 0 ? budget_override_ : instruction_budget();
  ++stats_.runs;
  StatsFlush counters{stats_};

  const Instr* code = program.code.data();
  const std::size_t code_size = program.code.size();
  const Value** view = view_.data();
  Value* storage = storage_.data();
  std::size_t pc = 0;
  while (pc < code_size) {
    const Instr& in = code[pc];
    ++counters.instructions;
    ++counters.cost_units;
    switch (in.op) {
      case Op::kLoadInput: {
        const Value* p = input_ptrs_[in.a];
        if (p == nullptr) throw RuntimeError(program.messages[in.b]);
        view[in.dst] = p;
        break;
      }

      case Op::kUnary: {
        const Value& v = *view[in.a];
        Value& dst = storage[in.dst];
        const bool neg = static_cast<UnaryOp>(in.sub) == UnaryOp::kNeg;
        if (v.is_scalar()) {
          const double x = v.as_scalar();
          dst.set_scalar(neg ? -x : (x == 0.0 ? 1.0 : 0.0));
        } else {
          const auto& src = v.as_vector();
          auto& out = dst.mutable_vector();
          out.resize(src.size());
          for (std::size_t i = 0; i < src.size(); ++i) {
            out[i] = neg ? -src[i] : (src[i] == 0.0 ? 1.0 : 0.0);
          }
          counters.cost_units += src.size();
        }
        view[in.dst] = &dst;
        break;
      }

      case Op::kBinary: {
        const Value& l = *view[in.a];
        const Value& r = *view[in.b];
        const auto op = static_cast<BinaryOp>(in.sub);
        Value& dst = storage[in.dst];
        if (op == BinaryOp::kAnd) {
          // Both operands are always EVALUATED (the compiler emitted their
          // code unconditionally, as the tree-walk evaluates both), but
          // the scalar CHECK of the right operand short-circuits, exactly
          // like the tree-walk's `require_scalar(l) != 0 &&
          // require_scalar(r) != 0`.
          double result = 0.0;
          if (require_scalar(l, "'&&' operand") != 0.0) {
            result = require_scalar(r, "'&&' operand") != 0.0 ? 1.0 : 0.0;
          }
          dst.set_scalar(result);
        } else if (op == BinaryOp::kOr) {
          double result = 1.0;
          if (require_scalar(l, "'||' operand") == 0.0) {
            result = require_scalar(r, "'||' operand") != 0.0 ? 1.0 : 0.0;
          }
          dst.set_scalar(result);
        } else if (l.is_scalar() && r.is_scalar()) {
          dst.set_scalar(apply_binary(op, l.as_scalar(), r.as_scalar()));
        } else {
          // The broadcast_binary loop, writing in place (registers are
          // SSA: operands never alias the destination).
          if (l.is_vector() && r.is_vector() && l.size() != r.size()) {
            throw RuntimeError(std::string("operator ") +
                               binary_op_name(op) +
                               ": vector length mismatch (" +
                               std::to_string(l.size()) + " vs " +
                               std::to_string(r.size()) + ")");
          }
          const std::size_t n = l.is_vector() ? l.size() : r.size();
          const double lsc = l.is_scalar() ? l.as_scalar() : 0.0;
          const double rsc = r.is_scalar() ? r.as_scalar() : 0.0;
          const double* lp = l.is_vector() ? l.as_vector().data() : &lsc;
          const double* rp = r.is_vector() ? r.as_vector().data() : &rsc;
          auto& out = dst.mutable_vector();
          out.resize(n);
          broadcast_op(op, lp, l.is_vector() ? 1 : 0, rp,
                       r.is_vector() ? 1 : 0, out.data(), n);
          counters.cost_units += n;
        }
        view[in.dst] = &dst;
        break;
      }

      case Op::kCall: {
        const Builtin& builtin = *builtin_table()[in.a].builtin;
        call_args_.resize(in.c);
        for (std::size_t i = 0; i < in.c; ++i) {
          call_args_[i] = *view[program.operands[in.b + i]];
        }
        Value result = builtin.fn(call_args_);
        counters.cost_units += result.is_vector() ? result.size() : 0;
        Value& dst = storage[in.dst];
        dst = std::move(result);
        view[in.dst] = &dst;
        break;
      }

      case Op::kIndex: {
        const Value& base = *view[in.a];
        const Value& index = *view[in.b];
        if (!base.is_vector()) {
          throw RuntimeError("cannot index a scalar (line " +
                             std::to_string(in.line) + ")");
        }
        const double raw = require_scalar(index, "index");
        if (std::floor(raw) != raw) {
          throw RuntimeError("index must be an integer");
        }
        // Range-checked as a double: the integer cast is only defined
        // once the index is known in range.
        const double n = static_cast<double>(base.size());
        const double i = raw < 0.0 ? raw + n : raw;
        if (i < 0.0 || i >= n) {
          throw RuntimeError("index " + std::to_string(raw) +
                             " out of range for vector of length " +
                             std::to_string(base.size()));
        }
        Value& dst = storage[in.dst];
        dst.set_scalar(base.as_vector()[static_cast<std::size_t>(i)]);
        view[in.dst] = &dst;
        break;
      }

      case Op::kVector: {
        if (in.c == 0) throw RuntimeError("empty vector literal");
        Value& dst = storage[in.dst];
        auto& out = dst.mutable_vector();
        out.resize(in.c);
        for (std::size_t i = 0; i < in.c; ++i) {
          // Elements were checked scalar by the preceding kCheckScalar.
          out[i] = view[program.operands[in.b + i]]->as_scalar();
        }
        counters.cost_units += in.c;
        view[in.dst] = &dst;
        break;
      }

      case Op::kCheckScalar: {
        if (!view[in.a]->is_scalar()) {
          throw RuntimeError(program.messages[in.b]);
        }
        break;
      }

      case Op::kBranchIfZero: {
        const double c = require_scalar(*view[in.a], "ternary condition");
        if (c == 0.0) {
          pc = in.b;
          continue;
        }
        break;
      }

      case Op::kJump:
        pc = in.b;
        continue;

      case Op::kCopy:
        view[in.dst] = view[in.a];
        break;

      case Op::kEmit: {
        StateRow& row = matrix_.rows[in.b];
        const Value& v = *view[in.a];
        if (v.is_vector()) {
          const auto& src = v.as_vector();
          row.is_vector = true;
          row.values.assign(src.begin(), src.end());
          if (row.values.empty()) {
            throw RuntimeError("emit '" + row.name + "': empty vector");
          }
        } else {
          row.is_vector = false;
          row.values.assign(1, v.as_scalar());
        }
        if (row.values.size() > 64) {
          throw RuntimeError("emit '" + row.name + "': row longer than 64");
        }
        counters.cost_units += row.values.size();
        break;
      }

      case Op::kThrow:
        throw RuntimeError(program.messages[in.a]);
    }
    if (counters.cost_units > budget) {
      throw BudgetError(
          "instruction budget exceeded: run passed " + std::to_string(budget) +
          " cost units at line " + std::to_string(in.line) +
          " (default " + std::to_string(kDefaultInstructionBudget) +
          "; override with NADA_DSL_BUDGET, see docs/DSL.md)");
    }
    ++pc;
  }
  return matrix_;
}

}  // namespace nada::dsl
