#include "dsl/parser.h"

#include <string>
#include <utility>

#include "dsl/lexer.h"
#include "dsl/value.h"

namespace nada::dsl {

const char* binary_op_name(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kLess: return "<";
    case BinaryOp::kGreater: return ">";
    case BinaryOp::kLessEq: return "<=";
    case BinaryOp::kGreaterEq: return ">=";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNotEq: return "!=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
  }
  return "?";
}

namespace {

// Deepest expression nesting the parser accepts. Every later pass over the
// AST — the canonical serializer, the bytecode compiler, the reference
// tree-walk, ~Expr — recurses once per level, so hostile source nested
// thousands deep would overflow the stack. Generated programs nest a
// handful of levels.
constexpr std::size_t kMaxNesting = 256;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program parse_program() {
    Program program;
    while (!check(TokenType::kEof)) {
      program.statements.push_back(parse_statement());
    }
    if (program.statements.empty()) {
      throw CompileError("empty program", 1);
    }
    if (program.emit_count() == 0) {
      throw CompileError("program never emits a state row", current().line);
    }
    return program;
  }

 private:
  const Token& current() const { return tokens_[pos_]; }

  bool check(TokenType t) const { return current().type == t; }

  Token advance() { return tokens_[pos_++]; }

  // Nesting levels held by one parse frame, released when it returns.
  // Parentheses add no AST node, so levels are counted as the parser
  // descends, not from the tree: one per parse_expr (parentheses, index
  // brackets, call arguments, vector elements, ternary arms), one per
  // unary operator, and one per operand an operator chain appends, since
  // a left-associative chain builds a left-deep tree.
  class Nesting {
   public:
    explicit Nesting(Parser& parser) : parser_(parser) {}
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    ~Nesting() { parser_.depth_ -= levels_; }

    void deeper() {
      if (parser_.depth_ >= kMaxNesting) {
        throw CompileError("expression nested deeper than " +
                               std::to_string(kMaxNesting) + " levels",
                           parser_.current().line);
      }
      ++parser_.depth_;
      ++levels_;
    }

   private:
    Parser& parser_;
    std::size_t levels_ = 0;
  };

  Token expect(TokenType t, const char* context) {
    if (!check(t)) {
      throw CompileError(std::string("expected ") + token_type_name(t) +
                             " " + context + ", found " +
                             token_type_name(current().type),
                         current().line);
    }
    return advance();
  }

  Statement parse_statement() {
    Statement stmt;
    stmt.line = current().line;
    if (check(TokenType::kLet)) {
      advance();
      stmt.kind = StatementKind::kLet;
      stmt.name = expect(TokenType::kIdentifier, "after 'let'").text;
      expect(TokenType::kAssign, "in let binding");
      stmt.expr = parse_expr();
      expect(TokenType::kSemicolon, "after let binding");
    } else if (check(TokenType::kEmit)) {
      advance();
      stmt.kind = StatementKind::kEmit;
      stmt.name = expect(TokenType::kString, "after 'emit'").text;
      if (stmt.name.empty()) {
        throw CompileError("emit row name is empty", stmt.line);
      }
      expect(TokenType::kAssign, "in emit statement");
      stmt.expr = parse_expr();
      expect(TokenType::kSemicolon, "after emit statement");
    } else {
      throw CompileError(std::string("expected 'let' or 'emit', found ") +
                             token_type_name(current().type),
                         current().line);
    }
    return stmt;
  }

  ExprPtr parse_expr() {
    Nesting nesting(*this);
    nesting.deeper();
    return parse_ternary();
  }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_or();
    if (!check(TokenType::kQuestion)) return cond;
    const std::size_t line = advance().line;
    ExprPtr then_branch = parse_expr();
    expect(TokenType::kColon, "in ternary expression");
    ExprPtr else_branch = parse_expr();
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kTernary;
    node->line = line;
    node->children.push_back(std::move(cond));
    node->children.push_back(std::move(then_branch));
    node->children.push_back(std::move(else_branch));
    return node;
  }

  ExprPtr parse_or() {
    ExprPtr left = parse_and();
    Nesting chain(*this);
    while (check(TokenType::kOrOr)) {
      chain.deeper();
      const std::size_t line = advance().line;
      left = make_binary(BinaryOp::kOr, std::move(left), parse_and(), line);
    }
    return left;
  }

  ExprPtr parse_and() {
    ExprPtr left = parse_comparison();
    Nesting chain(*this);
    while (check(TokenType::kAndAnd)) {
      chain.deeper();
      const std::size_t line = advance().line;
      left = make_binary(BinaryOp::kAnd, std::move(left), parse_comparison(),
                         line);
    }
    return left;
  }

  ExprPtr parse_comparison() {
    ExprPtr left = parse_additive();
    BinaryOp op{};
    bool has_op = true;
    switch (current().type) {
      case TokenType::kLess: op = BinaryOp::kLess; break;
      case TokenType::kGreater: op = BinaryOp::kGreater; break;
      case TokenType::kLessEq: op = BinaryOp::kLessEq; break;
      case TokenType::kGreaterEq: op = BinaryOp::kGreaterEq; break;
      case TokenType::kEqEq: op = BinaryOp::kEq; break;
      case TokenType::kNotEq: op = BinaryOp::kNotEq; break;
      default: has_op = false; break;
    }
    if (!has_op) return left;
    const std::size_t line = advance().line;
    return make_binary(op, std::move(left), parse_additive(), line);
  }

  ExprPtr parse_additive() {
    ExprPtr left = parse_multiplicative();
    Nesting chain(*this);
    while (check(TokenType::kPlus) || check(TokenType::kMinus)) {
      chain.deeper();
      const BinaryOp op = check(TokenType::kPlus) ? BinaryOp::kAdd
                                                  : BinaryOp::kSub;
      const std::size_t line = advance().line;
      left = make_binary(op, std::move(left), parse_multiplicative(), line);
    }
    return left;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr left = parse_unary();
    Nesting chain(*this);
    while (check(TokenType::kStar) || check(TokenType::kSlash) ||
           check(TokenType::kPercent)) {
      chain.deeper();
      BinaryOp op = BinaryOp::kMul;
      if (check(TokenType::kSlash)) op = BinaryOp::kDiv;
      if (check(TokenType::kPercent)) op = BinaryOp::kMod;
      const std::size_t line = advance().line;
      left = make_binary(op, std::move(left), parse_unary(), line);
    }
    return left;
  }

  ExprPtr parse_unary() {
    if (check(TokenType::kMinus) || check(TokenType::kBang)) {
      const UnaryOp op =
          check(TokenType::kMinus) ? UnaryOp::kNeg : UnaryOp::kNot;
      const std::size_t line = advance().line;
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kUnary;
      node->unary_op = op;
      node->line = line;
      Nesting nesting(*this);
      nesting.deeper();
      node->children.push_back(parse_unary());
      return node;
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    ExprPtr base = parse_primary();
    Nesting chain(*this);
    while (check(TokenType::kLBracket)) {
      chain.deeper();
      const std::size_t line = advance().line;
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kIndex;
      node->line = line;
      node->children.push_back(std::move(base));
      node->children.push_back(parse_expr());
      expect(TokenType::kRBracket, "after index expression");
      base = std::move(node);
    }
    return base;
  }

  ExprPtr parse_primary() {
    if (check(TokenType::kNumber)) {
      const Token tok = advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kNumber;
      node->number = tok.number;
      node->line = tok.line;
      return node;
    }
    if (check(TokenType::kIdentifier)) {
      const Token tok = advance();
      if (check(TokenType::kLParen)) {
        advance();
        auto node = std::make_unique<Expr>();
        node->kind = ExprKind::kCall;
        node->name = tok.text;
        node->line = tok.line;
        if (!check(TokenType::kRParen)) {
          node->children.push_back(parse_expr());
          while (check(TokenType::kComma)) {
            advance();
            node->children.push_back(parse_expr());
          }
        }
        expect(TokenType::kRParen, "to close argument list");
        return node;
      }
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kVariable;
      node->name = tok.text;
      node->line = tok.line;
      return node;
    }
    if (check(TokenType::kLParen)) {
      advance();
      ExprPtr inner = parse_expr();
      expect(TokenType::kRParen, "to close parenthesized expression");
      return inner;
    }
    if (check(TokenType::kLBracket)) {
      const std::size_t line = advance().line;
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kVectorLiteral;
      node->line = line;
      if (!check(TokenType::kRBracket)) {
        node->children.push_back(parse_expr());
        while (check(TokenType::kComma)) {
          advance();
          node->children.push_back(parse_expr());
        }
      }
      expect(TokenType::kRBracket, "to close vector literal");
      return node;
    }
    throw CompileError(std::string("unexpected ") +
                           token_type_name(current().type) +
                           " in expression",
                       current().line);
  }

  static ExprPtr make_binary(BinaryOp op, ExprPtr left, ExprPtr right,
                             std::size_t line) {
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kBinary;
    node->binary_op = op;
    node->line = line;
    node->children.push_back(std::move(left));
    node->children.push_back(std::move(right));
    return node;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< nesting levels currently held; see Nesting
};

}  // namespace

Program parse(std::string_view source) {
  return Parser(tokenize(source)).parse_program();
}

}  // namespace nada::dsl
