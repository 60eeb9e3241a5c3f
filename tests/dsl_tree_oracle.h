// Test helper: the tree-walk NadaScript interpreter, kept as the reference
// oracle for the bytecode VM (src/dsl/vm.h), the library's only engine.
//
// It evaluates the AST directly: every variable resolves through the
// Bindings maps, every node allocates a fresh Value, and builtin calls go
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
#include <utility>
#include <vector>

#include "dsl/ast.h"
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

/// Evaluates one expression. `inputs` are the observation variables;
/// `locals` are let-bindings accumulated so far.
inline Value eval_expr(const Expr& expr, const Bindings& inputs,
                       const Bindings& locals) {
  switch (expr.kind) {
    case ExprKind::kNumber:
      return Value(expr.number);

    case ExprKind::kVariable: {
      if (auto it = locals.find(expr.name); it != locals.end()) {
        return it->second;
      }
      if (auto it = inputs.find(expr.name); it != inputs.end()) {
        return it->second;
      }
      throw RuntimeError("undefined variable '" + expr.name + "' (line " +
                         std::to_string(expr.line) + ")");
    }

    case ExprKind::kUnary: {
      const Value operand = eval_expr(*expr.children[0], inputs, locals);
      if (expr.unary_op == UnaryOp::kNeg) {
        return map_unary(operand, [](double x) { return -x; });
      }
      return map_unary(operand, [](double x) { return x == 0.0 ? 1.0 : 0.0; });
    }

    case ExprKind::kBinary: {
      const Value lhs = eval_expr(*expr.children[0], inputs, locals);
      const Value rhs = eval_expr(*expr.children[1], inputs, locals);
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
      const Value cond = eval_expr(*expr.children[0], inputs, locals);
      const double c = require_scalar(cond, "ternary condition");
      return c != 0.0 ? eval_expr(*expr.children[1], inputs, locals)
                      : eval_expr(*expr.children[2], inputs, locals);
    }

    case ExprKind::kCall: {
      const auto it = builtins().find(expr.name);
      if (it == builtins().end()) {
        throw RuntimeError("unknown function '" + expr.name + "' (line " +
                           std::to_string(expr.line) + ")");
      }
      const Builtin& builtin = it->second;
      if (expr.children.size() < builtin.min_args ||
          expr.children.size() > builtin.max_args) {
        throw RuntimeError("function '" + expr.name + "' expects " +
                           std::to_string(builtin.min_args) +
                           (builtin.max_args != builtin.min_args
                                ? ".." + std::to_string(builtin.max_args)
                                : "") +
                           " arguments, got " +
                           std::to_string(expr.children.size()) + " (line " +
                           std::to_string(expr.line) + ")");
      }
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const auto& child : expr.children) {
        args.push_back(eval_expr(*child, inputs, locals));
      }
      return builtin.fn(args);
    }

    case ExprKind::kIndex: {
      const Value base = eval_expr(*expr.children[0], inputs, locals);
      const Value index = eval_expr(*expr.children[1], inputs, locals);
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
      out.reserve(expr.children.size());
      for (const auto& child : expr.children) {
        out.push_back(require_scalar(
            eval_expr(*child, inputs, locals), "vector literal element"));
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
  Bindings locals;
  StateMatrix matrix;
  for (const auto& stmt : program.statements) {
    Value value = eval_expr(*stmt.expr, inputs, locals);
    if (stmt.kind == StatementKind::kLet) {
      locals[stmt.name] = std::move(value);
    } else {
      StateRow row;
      row.name = stmt.name;
      row.is_vector = value.is_vector();
      if (value.is_vector()) {
        row.values = value.as_vector();
        if (row.values.empty()) {
          throw RuntimeError("emit '" + stmt.name + "': empty vector");
        }
      } else {
        row.values = {value.as_scalar()};
      }
      if (row.values.size() > 64) {
        throw RuntimeError("emit '" + stmt.name + "': row longer than 64");
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
