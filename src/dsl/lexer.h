// NadaScript lexer.
//
// Token stream for the state-function language. `#` starts a comment that
// runs to end of line (generated programs carry explanatory comments, like
// the LLM output the paper describes).
//
// A Token is a view into the source. The Lexer hands the parser one token
// at a time and reports a lexical error by value, as a SyntaxError; only
// tokenize() and dsl::parse turn one into a thrown CompileError.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace nada::dsl {

enum class TokenType {
  kNumber,
  kIdentifier,
  kString,     // double-quoted, used for emit row names
  kLet,        // keyword
  kEmit,       // keyword
  kPlus, kMinus, kStar, kSlash, kPercent,
  kLParen, kRParen,
  kLBracket, kRBracket,
  kComma, kSemicolon, kAssign,
  kLess, kGreater, kLessEq, kGreaterEq, kEqEq, kNotEq,
  kAndAnd, kOrOr, kBang,
  kQuestion, kColon,
  kEof,
};

[[nodiscard]] const char* token_type_name(TokenType t);

struct Token {
  TokenType type = TokenType::kEof;
  /// The token's spelling in the source; a string's contents, unquoted.
  std::string_view text;
  double number = 0.0;    // valid when type == kNumber
  std::size_t line = 1;
};

/// Deepest expression nesting the parser accepts (parser.h).
inline constexpr std::size_t kMaxNesting = 256;

/// A syntax error as the front end's core reports it: by value, and with
/// no message text built, so a source that does not parse costs the
/// fingerprint path no allocation. message() renders the text dsl::parse
/// throws (CompileError prefixes the line).
struct SyntaxError {
  enum class Kind {
    kMalformedNumber,      ///< `text` is the number's spelling
    kUnterminatedString,
    kStrayAmpersand,
    kStrayBar,
    kUnexpectedCharacter,  ///< `text` is the character
    kEmptyProgram,
    kNoEmit,
    kTooDeep,              ///< nested deeper than kMaxNesting
    kExpected,             ///< `expected` `context`, found `found`
    kEmptyRowName,
    kExpectedStatement,    ///< found `found`
    kUnexpectedToken,      ///< `found` in an expression
  };

  Kind kind = Kind::kEmptyProgram;
  std::size_t line = 1;
  std::string_view text;  ///< a view into the source
  TokenType expected = TokenType::kEof;
  TokenType found = TokenType::kEof;
  const char* context = "";

  [[nodiscard]] std::string message() const;
};

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  /// Scans the next token into `token`, or returns false with `error` set.
  /// Past the end it keeps returning kEof.
  bool next(Token& token, SyntaxError& error);

 private:
  std::string_view source_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

/// Tokenizes `source`; throws CompileError on unrecognized characters,
/// unterminated strings, or malformed numbers.
[[nodiscard]] std::vector<Token> tokenize(std::string_view source);

}  // namespace nada::dsl
