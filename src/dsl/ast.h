// NadaScript programs, flat.
//
// Programs are a sequence of `let` bindings and `emit` statements; the
// emitted rows form the state matrix fed to the actor-critic network.
//
// A Program owns its source text, its statements and one vector of
// expression nodes. A node refers to its children by an index range into
// one child-index vector, and every name (variables, functions, let and
// row names) is an (offset, length) span into the text. Spans, not
// string_views: a short source sits in std::string's inline buffer, so a
// view would dangle after the Program is copied or moved. Parsing into an
// existing Program reuses all four buffers, which is what lets the
// fingerprint path parse without allocating (store/fingerprint.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nada::dsl {

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kLess, kGreater, kLessEq, kGreaterEq, kEq, kNotEq,
  kAnd, kOr,
};

[[nodiscard]] const char* binary_op_name(BinaryOp op);

enum class UnaryOp { kNeg, kNot };

enum class ExprKind {
  kNumber,
  kVariable,
  kUnary,
  kBinary,
  kTernary,
  kCall,
  kIndex,
  kVectorLiteral,
};

/// A name's place in Program::source().
struct TextSpan {
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Index of an expression node in its Program.
using ExprId = std::uint32_t;

struct Expr {
  ExprKind kind = ExprKind::kNumber;
  UnaryOp unary_op = UnaryOp::kNeg;     ///< kUnary
  BinaryOp binary_op = BinaryOp::kAdd;  ///< kBinary
  std::size_t line = 1;
  double number = 0.0;  ///< kNumber
  TextSpan name;        ///< kVariable / kCall
  /// Children, as a range of Program's child-index vector: kUnary uses
  /// [0]; kBinary uses [0], [1]; kTernary uses [0]=cond, [1]=then,
  /// [2]=else; kCall uses all as arguments; kIndex uses [0]=base,
  /// [1]=index; kVectorLiteral uses all as elements.
  std::uint32_t first_child = 0;
  std::uint32_t child_count = 0;
};

enum class StatementKind { kLet, kEmit };

struct Statement {
  StatementKind kind = StatementKind::kLet;
  std::size_t line = 1;
  TextSpan name;  ///< binding name (let) or row name (emit)
  ExprId expr = 0;
  /// kLet: this binding's index among the program's lets, in order.
  std::uint32_t ordinal = 0;
};

class Program {
 public:
  /// The text the program was parsed from; every TextSpan points into it.
  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] const std::vector<Statement>& statements() const {
    return statements_;
  }
  [[nodiscard]] const Expr& expr(ExprId id) const { return exprs_[id]; }
  [[nodiscard]] std::span<const ExprId> children(const Expr& e) const {
    return {children_.data() + e.first_child, e.child_count};
  }
  [[nodiscard]] const Expr& child(const Expr& e, std::size_t i) const {
    return exprs_[children_[e.first_child + i]];
  }
  [[nodiscard]] std::string_view text(TextSpan span) const {
    return std::string_view(source_).substr(span.offset, span.length);
  }

  /// The `let` that `name`, referenced in statement `at`, resolves to: the
  /// latest let before `at` binding that name. nullptr when the name is
  /// free (an observation input). Statements are few, so the search from
  /// the back replaces a map.
  [[nodiscard]] const Statement* binding(std::size_t at,
                                         std::string_view name) const {
    for (std::size_t i = at; i-- > 0;) {
      const Statement& s = statements_[i];
      if (s.kind == StatementKind::kLet && text(s.name) == name) return &s;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t emit_count() const {
    std::size_t n = 0;
    for (const auto& s : statements_) {
      if (s.kind == StatementKind::kEmit) ++n;
    }
    return n;
  }

 private:
  friend class Parser;  // parser.cpp fills all four buffers

  std::string source_;
  std::vector<Statement> statements_;
  std::vector<Expr> exprs_;
  std::vector<ExprId> children_;
};

}  // namespace nada::dsl
