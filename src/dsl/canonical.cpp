#include "dsl/canonical.h"

#include <unordered_map>

#include "util/strings.h"

namespace nada::dsl {
namespace {

using RenameMap = std::unordered_map<std::string, std::string>;

void append_expr(std::string& out, const Expr& expr, const RenameMap& renames) {
  switch (expr.kind) {
    case ExprKind::kNumber:
      out += util::shortest_double(expr.number);
      break;
    case ExprKind::kVariable: {
      // Free (observation) variables live in a sigiled namespace so a
      // program that literally references "v0" can never collide with a
      // renamed binding — capture would fingerprint semantically different
      // programs identically.
      const auto it = renames.find(expr.name);
      if (it == renames.end()) {
        out += '@';
        out += expr.name;
      } else {
        out += it->second;
      }
      break;
    }
    case ExprKind::kUnary:
      out += '(';
      out += expr.unary_op == UnaryOp::kNeg ? '-' : '!';
      append_expr(out, *expr.children[0], renames);
      out += ')';
      break;
    case ExprKind::kBinary:
      out += '(';
      append_expr(out, *expr.children[0], renames);
      out += ' ';
      out += binary_op_name(expr.binary_op);
      out += ' ';
      append_expr(out, *expr.children[1], renames);
      out += ')';
      break;
    case ExprKind::kTernary:
      out += '(';
      append_expr(out, *expr.children[0], renames);
      out += " ? ";
      append_expr(out, *expr.children[1], renames);
      out += " : ";
      append_expr(out, *expr.children[2], renames);
      out += ')';
      break;
    case ExprKind::kCall: {
      out += expr.name;
      out += '(';
      bool first = true;
      for (const auto& arg : expr.children) {
        if (!first) out += ", ";
        first = false;
        append_expr(out, *arg, renames);
      }
      out += ')';
      break;
    }
    case ExprKind::kIndex:
      append_expr(out, *expr.children[0], renames);
      out += '[';
      append_expr(out, *expr.children[1], renames);
      out += ']';
      break;
    case ExprKind::kVectorLiteral: {
      out += '[';
      bool first = true;
      for (const auto& element : expr.children) {
        if (!first) out += ", ";
        first = false;
        append_expr(out, *element, renames);
      }
      out += ']';
      break;
    }
  }
}

}  // namespace

std::string canonical_source(const Program& program) {
  std::string out;
  RenameMap renames;
  std::size_t next_binding = 0;
  for (const auto& statement : program.statements) {
    if (statement.kind == StatementKind::kLet) {
      out += "let ";
      // Serialize the value under the renames in scope *before* this
      // binding shadows its name, exactly matching evaluation order.
      std::string value;
      append_expr(value, *statement.expr, renames);
      std::string& canonical_name = renames[statement.name];
      canonical_name = "v" + std::to_string(next_binding++);
      out += canonical_name;
      out += " = ";
      out += value;
    } else {
      out += "emit \"";
      out += statement.name;
      out += "\" = ";
      append_expr(out, *statement.expr, renames);
    }
    out += ";\n";
  }
  return out;
}

}  // namespace nada::dsl
