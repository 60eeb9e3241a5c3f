// Test helper: the tree-walk NadaScript interpreter, kept as the reference
// oracle for the bytecode VM (src/dsl/vm.h), the library's only engine.
//
// It walks the parsed program's nodes directly: every variable resolves by
// name, through its own map of let locals and then the input frame's
// vocabulary, every node allocates a fresh Value, and builtin calls go
// through the shared registry (src/dsl/builtins.h). tests/dsl_vm_test.cpp
// pins the VM bit-identical to it over both generators' candidate streams
// (values AND error messages), and bench/dsl_exec.cpp times one against the
// other. The small helpers below are private copies, as in vm.cpp, so the
// oracle shares only the builtins with the engine it checks.
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dsl/ast.h"
#include "dsl/binding_catalog.h"
#include "dsl/builtins.h"
#include "dsl/value.h"

namespace nada::test {

using dsl::BinaryOp;
using dsl::Bindings;
using dsl::Builtin;
using dsl::Expr;
using dsl::ExprKind;
using dsl::Program;
using dsl::RuntimeError;
using dsl::StateMatrix;
using dsl::StateRow;
using dsl::StatementKind;
using dsl::UnaryOp;
using dsl::Value;
using dsl::broadcast_binary;
using dsl::builtins;

/// Hashes names by view, so a lookup builds no std::string.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const {
    return std::hash<std::string_view>{}(name);
  }
};

/// The oracle's let locals, by name.
using Locals =
    std::unordered_map<std::string, Value, NameHash, std::equal_to<>>;

inline double require_scalar(const Value& v, const char* what) {
  if (!v.is_scalar()) {
    throw RuntimeError(std::string(what) + " must be a scalar");
  }
  return v.as_scalar();
}

inline Value map_unary(const Value& v,
                       const std::function<double(double)>& fn) {
  if (v.is_scalar()) return Value(fn(v.as_scalar()));
  std::vector<double> out(v.as_vector().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = fn(v.as_vector()[i]);
  }
  return Value(std::move(out));
}

inline double checked_div(double a, double b) {
  if (std::abs(b) < 1e-12) throw RuntimeError("division by zero");
  return a / b;
}

/// Evaluates one expression of `program`. `inputs` is the observation
/// frame; `locals` are let-bindings accumulated so far.
inline Value eval_expr(const Program& program, const Expr& expr,
                       const Bindings& inputs, const Locals& locals) {
  const auto child = [&](std::size_t i) {
    return eval_expr(program, program.child(expr, i), inputs, locals);
  };
  switch (expr.kind) {
    case ExprKind::kNumber:
      return Value(expr.number);

    case ExprKind::kVariable: {
      const std::string_view name = program.text(expr.name);
      if (auto it = locals.find(name); it != locals.end()) {
        return it->second;
      }
      if (const Value* input = inputs.find(name)) return *input;
      throw RuntimeError("undefined variable '" + std::string(name) +
                         "' (line " + std::to_string(expr.line) + ")");
    }

    case ExprKind::kUnary: {
      const Value operand = child(0);
      if (expr.unary_op == UnaryOp::kNeg) {
        return map_unary(operand, [](double x) { return -x; });
      }
      return map_unary(operand, [](double x) { return x == 0.0 ? 1.0 : 0.0; });
    }

    case ExprKind::kBinary: {
      const Value lhs = child(0);
      const Value rhs = child(1);
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
          return broadcast_binary(
              lhs, rhs, [](double a, double b) { return a + b; }, "+");
        case BinaryOp::kSub:
          return broadcast_binary(
              lhs, rhs, [](double a, double b) { return a - b; }, "-");
        case BinaryOp::kMul:
          return broadcast_binary(
              lhs, rhs, [](double a, double b) { return a * b; }, "*");
        case BinaryOp::kDiv:
          return broadcast_binary(lhs, rhs, checked_div, "/");
        case BinaryOp::kMod:
          return broadcast_binary(lhs, rhs, [](double a, double b) {
            if (std::abs(b) < 1e-12) throw RuntimeError("modulo by zero");
            return std::fmod(a, b);
          }, "%");
        case BinaryOp::kLess:
          return broadcast_binary(
              lhs, rhs, [](double a, double b) { return a < b ? 1.0 : 0.0; },
              "<");
        case BinaryOp::kGreater:
          return broadcast_binary(
              lhs, rhs, [](double a, double b) { return a > b ? 1.0 : 0.0; },
              ">");
        case BinaryOp::kLessEq:
          return broadcast_binary(
              lhs, rhs, [](double a, double b) { return a <= b ? 1.0 : 0.0; },
              "<=");
        case BinaryOp::kGreaterEq:
          return broadcast_binary(
              lhs, rhs, [](double a, double b) { return a >= b ? 1.0 : 0.0; },
              ">=");
        case BinaryOp::kEq:
          return broadcast_binary(
              lhs, rhs, [](double a, double b) { return a == b ? 1.0 : 0.0; },
              "==");
        case BinaryOp::kNotEq:
          return broadcast_binary(
              lhs, rhs, [](double a, double b) { return a != b ? 1.0 : 0.0; },
              "!=");
        case BinaryOp::kAnd:
          return Value(require_scalar(lhs, "'&&' operand") != 0.0 &&
                               require_scalar(rhs, "'&&' operand") != 0.0
                           ? 1.0
                           : 0.0);
        case BinaryOp::kOr:
          return Value(require_scalar(lhs, "'||' operand") != 0.0 ||
                               require_scalar(rhs, "'||' operand") != 0.0
                           ? 1.0
                           : 0.0);
      }
      throw RuntimeError("unknown binary operator");
    }

    case ExprKind::kTernary: {
      const Value cond = child(0);
      const double c = require_scalar(cond, "ternary condition");
      return c != 0.0 ? child(1) : child(2);
    }

    case ExprKind::kCall: {
      const std::string name(program.text(expr.name));
      const auto it = builtins().find(name);
      if (it == builtins().end()) {
        throw RuntimeError("unknown function '" + name + "' (line " +
                           std::to_string(expr.line) + ")");
      }
      const Builtin& builtin = it->second;
      if (expr.child_count < builtin.min_args ||
          expr.child_count > builtin.max_args) {
        throw RuntimeError("function '" + name + "' expects " +
                           std::to_string(builtin.min_args) +
                           (builtin.max_args != builtin.min_args
                                ? ".." + std::to_string(builtin.max_args)
                                : "") +
                           " arguments, got " +
                           std::to_string(expr.child_count) + " (line " +
                           std::to_string(expr.line) + ")");
      }
      std::vector<Value> args;
      args.reserve(expr.child_count);
      for (std::size_t i = 0; i < expr.child_count; ++i) {
        args.push_back(child(i));
      }
      return builtin.fn(args);
    }

    case ExprKind::kIndex: {
      const Value base = child(0);
      const Value index = child(1);
      if (!base.is_vector()) {
        throw RuntimeError("cannot index a scalar (line " +
                           std::to_string(expr.line) + ")");
      }
      const double raw = require_scalar(index, "index");
      if (std::floor(raw) != raw) {
        throw RuntimeError("index must be an integer");
      }
      // Python-style negative indexing, range-checked as a double: the
      // integer cast is only defined once the index is known in range.
      const double n = static_cast<double>(base.size());
      const double i = raw < 0.0 ? raw + n : raw;
      if (i < 0.0 || i >= n) {
        throw RuntimeError("index " + std::to_string(raw) +
                           " out of range for vector of length " +
                           std::to_string(base.size()));
      }
      return Value(base.as_vector()[static_cast<std::size_t>(i)]);
    }

    case ExprKind::kVectorLiteral: {
      std::vector<double> out;
      out.reserve(expr.child_count);
      for (std::size_t i = 0; i < expr.child_count; ++i) {
        out.push_back(require_scalar(child(i), "vector literal element"));
      }
      if (out.empty()) throw RuntimeError("empty vector literal");
      return Value(std::move(out));
    }
  }
  throw RuntimeError("unknown expression kind");
}

/// Runs a full program; throws RuntimeError on any evaluation error.
inline StateMatrix run_program(const Program& program,
                               const Bindings& inputs) {
  Locals locals;
  StateMatrix matrix;
  for (const auto& stmt : program.statements()) {
    Value value =
        eval_expr(program, program.expr(stmt.expr), inputs, locals);
    const std::string name(program.text(stmt.name));
    if (stmt.kind == StatementKind::kLet) {
      locals[name] = std::move(value);
    } else {
      StateRow row;
      row.name = name;
      row.is_vector = value.is_vector();
      if (value.is_vector()) {
        row.values = value.as_vector();
        if (row.values.empty()) {
          throw RuntimeError("emit '" + name + "': empty vector");
        }
      } else {
        row.values = {value.as_scalar()};
      }
      if (row.values.size() > 64) {
        throw RuntimeError("emit '" + name + "': row longer than 64");
      }
      matrix.rows.push_back(std::move(row));
    }
  }
  if (matrix.rows.empty()) {
    throw RuntimeError("program emitted no state rows");
  }
  if (matrix.rows.size() > 24) {
    throw RuntimeError("program emitted more than 24 state rows");
  }
  return matrix;
}

}  // namespace nada::test
