#include "dsl/parser.h"

#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

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

/// What a parse function returns once an error is recorded.
constexpr ExprId kNoExpr = std::numeric_limits<ExprId>::max();

/// Operands of the calls and vector literals being parsed, innermost last.
/// One per thread and kept across parses, like the fingerprint path's
/// Program, so a warm parse allocates nothing.
std::vector<ExprId>& operand_stack() {
  thread_local std::vector<ExprId> stack;
  return stack;
}

}  // namespace

// The parser core. It pulls tokens from the Lexer one at a time and stops
// at the first error, which it records instead of throwing. The source is
// tokenized in full before it is parsed in the error contract, so after a
// parse error the rest is lexed too, and a lexical error found there wins.
//
// Nesting is capped at kMaxNesting: every later pass over a program (the
// canonical serializer, the bytecode compiler, the test oracle's
// tree-walk) recurses once per level, so hostile source nested thousands
// deep would overflow the stack. Generated programs nest a handful of
// levels.
class Parser {
 public:
  Parser(Program& out, std::string source) : out_(out) {
    out_.source_ = std::move(source);
  }
  Parser(Program& out, std::string_view source) : out_(out) {
    out_.source_.assign(source.data(), source.size());
  }

  std::optional<SyntaxError> run() {
    out_.statements_.clear();
    out_.exprs_.clear();
    out_.children_.clear();
    operands_.clear();
    lexer_ = Lexer(out_.source_);
    advance();
    while (!check(TokenType::kEof)) {
      if (!parse_statement()) break;
    }
    if (parse_error_.has_value() && !lex_error_.has_value()) {
      Token token;
      SyntaxError error;
      bool lexed = true;
      while ((lexed = lexer_.next(token, error)) &&
             token.type != TokenType::kEof) {
      }
      if (!lexed) lex_error_ = error;
    }
    if (lex_error_.has_value()) return lex_error_;
    if (parse_error_.has_value()) return parse_error_;
    if (out_.statements_.empty()) {
      return error_at(SyntaxError::Kind::kEmptyProgram, 1);
    }
    if (out_.emit_count() == 0) {
      return error_at(SyntaxError::Kind::kNoEmit, current_.line);
    }
    return std::nullopt;
  }

 private:
  // Nesting levels held by one parse frame, released when it returns.
  // Parentheses add no node, so levels are counted as the parser descends,
  // not from the tree: one per parse_expr (parentheses, index brackets,
  // call arguments, vector elements, ternary arms), one per unary
  // operator, and one per operand an operator chain appends, since a
  // left-associative chain builds a left-deep tree.
  class Nesting {
   public:
    explicit Nesting(Parser& parser) : parser_(parser) {}
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    ~Nesting() { parser_.depth_ -= levels_; }

    bool deeper() {
      if (parser_.depth_ >= kMaxNesting) {
        return parser_.fail(SyntaxError::Kind::kTooDeep);
      }
      ++parser_.depth_;
      ++levels_;
      return true;
    }

   private:
    Parser& parser_;
    std::size_t levels_ = 0;
  };

  static SyntaxError error_at(SyntaxError::Kind kind, std::size_t line) {
    SyntaxError error;
    error.kind = kind;
    error.line = line;
    return error;
  }

  /// Records a parse error at the current token; always false.
  bool fail(SyntaxError::Kind kind, const char* context = "",
            TokenType expected = TokenType::kEof) {
    if (!parse_error_.has_value()) {
      SyntaxError error = error_at(kind, current_.line);
      error.context = context;
      error.expected = expected;
      error.found = current_.type;
      parse_error_ = error;
    }
    return false;
  }

  bool check(TokenType t) const { return current_.type == t; }

  /// Consumes the current token and scans the next. After a lexical error
  /// the current token stays end of input, so every parse function
  /// unwinds.
  Token advance() {
    const Token consumed = current_;
    if (!lex_error_.has_value()) {
      SyntaxError error;
      if (!lexer_.next(current_, error)) {
        lex_error_ = error;
        current_ = Token{TokenType::kEof, {}, 0.0, error.line};
      }
    }
    return consumed;
  }

  bool expect(TokenType t, const char* context, Token* consumed = nullptr) {
    if (!check(t)) return fail(SyntaxError::Kind::kExpected, context, t);
    const Token token = advance();
    if (consumed != nullptr) *consumed = token;
    return true;
  }

  TextSpan span_of(std::string_view text) const {
    return {static_cast<std::size_t>(text.data() - out_.source_.data()),
            text.size()};
  }

  ExprId add(Expr node, std::initializer_list<ExprId> children) {
    node.first_child = static_cast<std::uint32_t>(out_.children_.size());
    node.child_count = static_cast<std::uint32_t>(children.size());
    out_.children_.insert(out_.children_.end(), children);
    out_.exprs_.push_back(node);
    return static_cast<ExprId>(out_.exprs_.size() - 1);
  }

  /// Adds `node` with the operands pushed since `mark` as its children.
  ExprId add_operands(Expr node, std::size_t mark) {
    node.first_child = static_cast<std::uint32_t>(out_.children_.size());
    node.child_count = static_cast<std::uint32_t>(operands_.size() - mark);
    out_.children_.insert(out_.children_.end(), operands_.begin() + mark,
                          operands_.end());
    operands_.resize(mark);
    out_.exprs_.push_back(node);
    return static_cast<ExprId>(out_.exprs_.size() - 1);
  }

  static Expr node_of(ExprKind kind, std::size_t line) {
    Expr node;
    node.kind = kind;
    node.line = line;
    return node;
  }

  bool parse_statement() {
    Statement stmt;
    stmt.line = current_.line;
    Token name;
    if (check(TokenType::kLet)) {
      advance();
      stmt.kind = StatementKind::kLet;
      if (!expect(TokenType::kIdentifier, "after 'let'", &name)) return false;
      stmt.name = span_of(name.text);
      if (!expect(TokenType::kAssign, "in let binding")) return false;
      stmt.expr = parse_expr();
      if (stmt.expr == kNoExpr) return false;
      if (!expect(TokenType::kSemicolon, "after let binding")) return false;
      stmt.ordinal = lets_++;
    } else if (check(TokenType::kEmit)) {
      advance();
      stmt.kind = StatementKind::kEmit;
      if (!expect(TokenType::kString, "after 'emit'", &name)) return false;
      stmt.name = span_of(name.text);
      if (name.text.empty()) {
        // Reported at the statement's line, not the name's.
        parse_error_ = error_at(SyntaxError::Kind::kEmptyRowName, stmt.line);
        return false;
      }
      if (!expect(TokenType::kAssign, "in emit statement")) return false;
      stmt.expr = parse_expr();
      if (stmt.expr == kNoExpr) return false;
      if (!expect(TokenType::kSemicolon, "after emit statement")) return false;
    } else {
      return fail(SyntaxError::Kind::kExpectedStatement);
    }
    out_.statements_.push_back(stmt);
    return true;
  }

  ExprId parse_expr() {
    Nesting nesting(*this);
    if (!nesting.deeper()) return kNoExpr;
    return parse_ternary();
  }

  ExprId parse_ternary() {
    const ExprId cond = parse_or();
    if (cond == kNoExpr || !check(TokenType::kQuestion)) return cond;
    const std::size_t line = advance().line;
    const ExprId then_branch = parse_expr();
    if (then_branch == kNoExpr) return kNoExpr;
    if (!expect(TokenType::kColon, "in ternary expression")) return kNoExpr;
    const ExprId else_branch = parse_expr();
    if (else_branch == kNoExpr) return kNoExpr;
    return add(node_of(ExprKind::kTernary, line),
               {cond, then_branch, else_branch});
  }

  ExprId binary(BinaryOp op, ExprId left, ExprId right, std::size_t line) {
    Expr node = node_of(ExprKind::kBinary, line);
    node.binary_op = op;
    return add(node, {left, right});
  }

  ExprId parse_or() {
    ExprId left = parse_and();
    Nesting chain(*this);
    while (left != kNoExpr && check(TokenType::kOrOr)) {
      if (!chain.deeper()) return kNoExpr;
      const std::size_t line = advance().line;
      const ExprId right = parse_and();
      if (right == kNoExpr) return kNoExpr;
      left = binary(BinaryOp::kOr, left, right, line);
    }
    return left;
  }

  ExprId parse_and() {
    ExprId left = parse_comparison();
    Nesting chain(*this);
    while (left != kNoExpr && check(TokenType::kAndAnd)) {
      if (!chain.deeper()) return kNoExpr;
      const std::size_t line = advance().line;
      const ExprId right = parse_comparison();
      if (right == kNoExpr) return kNoExpr;
      left = binary(BinaryOp::kAnd, left, right, line);
    }
    return left;
  }

  ExprId parse_comparison() {
    const ExprId left = parse_additive();
    if (left == kNoExpr) return kNoExpr;
    BinaryOp op{};
    switch (current_.type) {
      case TokenType::kLess: op = BinaryOp::kLess; break;
      case TokenType::kGreater: op = BinaryOp::kGreater; break;
      case TokenType::kLessEq: op = BinaryOp::kLessEq; break;
      case TokenType::kGreaterEq: op = BinaryOp::kGreaterEq; break;
      case TokenType::kEqEq: op = BinaryOp::kEq; break;
      case TokenType::kNotEq: op = BinaryOp::kNotEq; break;
      default: return left;
    }
    const std::size_t line = advance().line;
    const ExprId right = parse_additive();
    if (right == kNoExpr) return kNoExpr;
    return binary(op, left, right, line);
  }

  ExprId parse_additive() {
    ExprId left = parse_multiplicative();
    Nesting chain(*this);
    while (left != kNoExpr &&
           (check(TokenType::kPlus) || check(TokenType::kMinus))) {
      if (!chain.deeper()) return kNoExpr;
      const BinaryOp op = check(TokenType::kPlus) ? BinaryOp::kAdd
                                                  : BinaryOp::kSub;
      const std::size_t line = advance().line;
      const ExprId right = parse_multiplicative();
      if (right == kNoExpr) return kNoExpr;
      left = binary(op, left, right, line);
    }
    return left;
  }

  ExprId parse_multiplicative() {
    ExprId left = parse_unary();
    Nesting chain(*this);
    while (left != kNoExpr &&
           (check(TokenType::kStar) || check(TokenType::kSlash) ||
            check(TokenType::kPercent))) {
      if (!chain.deeper()) return kNoExpr;
      BinaryOp op = BinaryOp::kMul;
      if (check(TokenType::kSlash)) op = BinaryOp::kDiv;
      if (check(TokenType::kPercent)) op = BinaryOp::kMod;
      const std::size_t line = advance().line;
      const ExprId right = parse_unary();
      if (right == kNoExpr) return kNoExpr;
      left = binary(op, left, right, line);
    }
    return left;
  }

  ExprId parse_unary() {
    if (!check(TokenType::kMinus) && !check(TokenType::kBang)) {
      return parse_postfix();
    }
    Expr node = node_of(ExprKind::kUnary, 0);
    node.unary_op = check(TokenType::kMinus) ? UnaryOp::kNeg : UnaryOp::kNot;
    node.line = advance().line;
    Nesting nesting(*this);
    if (!nesting.deeper()) return kNoExpr;
    const ExprId operand = parse_unary();
    if (operand == kNoExpr) return kNoExpr;
    return add(node, {operand});
  }

  ExprId parse_postfix() {
    ExprId base = parse_primary();
    Nesting chain(*this);
    while (base != kNoExpr && check(TokenType::kLBracket)) {
      if (!chain.deeper()) return kNoExpr;
      const std::size_t line = advance().line;
      const ExprId index = parse_expr();
      if (index == kNoExpr) return kNoExpr;
      if (!expect(TokenType::kRBracket, "after index expression")) {
        return kNoExpr;
      }
      base = add(node_of(ExprKind::kIndex, line), {base, index});
    }
    return base;
  }

  /// Parses `close`-terminated, comma-separated expressions onto the
  /// operand stack; false once an error is recorded.
  bool parse_operands(TokenType close) {
    if (check(close)) return true;
    ExprId operand = parse_expr();
    if (operand == kNoExpr) return false;
    operands_.push_back(operand);
    while (check(TokenType::kComma)) {
      advance();
      operand = parse_expr();
      if (operand == kNoExpr) return false;
      operands_.push_back(operand);
    }
    return true;
  }

  ExprId parse_primary() {
    if (check(TokenType::kNumber)) {
      const Token tok = advance();
      Expr node = node_of(ExprKind::kNumber, tok.line);
      node.number = tok.number;
      return add(node, {});
    }
    if (check(TokenType::kIdentifier)) {
      const Token tok = advance();
      if (check(TokenType::kLParen)) {
        advance();
        Expr node = node_of(ExprKind::kCall, tok.line);
        node.name = span_of(tok.text);
        const std::size_t mark = operands_.size();
        if (!parse_operands(TokenType::kRParen) ||
            !expect(TokenType::kRParen, "to close argument list")) {
          return kNoExpr;
        }
        return add_operands(node, mark);
      }
      Expr node = node_of(ExprKind::kVariable, tok.line);
      node.name = span_of(tok.text);
      return add(node, {});
    }
    if (check(TokenType::kLParen)) {
      advance();
      const ExprId inner = parse_expr();
      if (inner == kNoExpr) return kNoExpr;
      if (!expect(TokenType::kRParen, "to close parenthesized expression")) {
        return kNoExpr;
      }
      return inner;
    }
    if (check(TokenType::kLBracket)) {
      const Expr node = node_of(ExprKind::kVectorLiteral, advance().line);
      const std::size_t mark = operands_.size();
      if (!parse_operands(TokenType::kRBracket) ||
          !expect(TokenType::kRBracket, "to close vector literal")) {
        return kNoExpr;
      }
      return add_operands(node, mark);
    }
    fail(SyntaxError::Kind::kUnexpectedToken);
    return kNoExpr;
  }

  Program& out_;
  Lexer lexer_{{}};  ///< set by run(), once out_ holds the source
  std::vector<ExprId>& operands_ = operand_stack();
  Token current_;
  std::optional<SyntaxError> lex_error_;
  std::optional<SyntaxError> parse_error_;
  std::size_t depth_ = 0;  ///< nesting levels currently held; see Nesting
  std::uint32_t lets_ = 0;
};

std::optional<SyntaxError> parse_into(std::string_view source, Program& out) {
  return Parser(out, source).run();
}

Program parse(std::string source) {
  Program program;
  if (const auto error = Parser(program, std::move(source)).run()) {
    throw CompileError(error->message(), error->line);
  }
  return program;
}

}  // namespace nada::dsl
