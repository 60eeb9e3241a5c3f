#include "dsl/lexer.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "dsl/value.h"

namespace nada::dsl {
namespace {

// Character classes of the "C" locale, which the library never leaves.
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}

// strtod's value of the whole spelling; false when strtod stops short of
// its end. std::from_chars agrees with strtod wherever it accepts the
// spelling (both round correctly), so it takes the common case; strtod
// decides the rest, such as 1e999 and 1e-999, which from_chars rejects as
// out of range and strtod reads as inf and 0.
bool parse_number(std::string_view text, double& value) {
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && stop == end) return true;
  char buf[64];
  std::string long_copy;
  const char* terminated = buf;
  if (text.size() < sizeof(buf)) {
    std::memcpy(buf, text.data(), text.size());
    buf[text.size()] = '\0';
  } else {
    long_copy.assign(text);
    terminated = long_copy.c_str();
  }
  char* parsed_end = nullptr;
  value = std::strtod(terminated, &parsed_end);
  return parsed_end == terminated + text.size();
}

}  // namespace

const char* token_type_name(TokenType t) {
  switch (t) {
    case TokenType::kNumber: return "number";
    case TokenType::kIdentifier: return "identifier";
    case TokenType::kString: return "string";
    case TokenType::kLet: return "'let'";
    case TokenType::kEmit: return "'emit'";
    case TokenType::kPlus: return "'+'";
    case TokenType::kMinus: return "'-'";
    case TokenType::kStar: return "'*'";
    case TokenType::kSlash: return "'/'";
    case TokenType::kPercent: return "'%'";
    case TokenType::kLParen: return "'('";
    case TokenType::kRParen: return "')'";
    case TokenType::kLBracket: return "'['";
    case TokenType::kRBracket: return "']'";
    case TokenType::kComma: return "','";
    case TokenType::kSemicolon: return "';'";
    case TokenType::kAssign: return "'='";
    case TokenType::kLess: return "'<'";
    case TokenType::kGreater: return "'>'";
    case TokenType::kLessEq: return "'<='";
    case TokenType::kGreaterEq: return "'>='";
    case TokenType::kEqEq: return "'=='";
    case TokenType::kNotEq: return "'!='";
    case TokenType::kAndAnd: return "'&&'";
    case TokenType::kOrOr: return "'||'";
    case TokenType::kBang: return "'!'";
    case TokenType::kQuestion: return "'?'";
    case TokenType::kColon: return "':'";
    case TokenType::kEof: return "end of input";
  }
  return "?";
}

std::string SyntaxError::message() const {
  switch (kind) {
    case Kind::kMalformedNumber:
      return "malformed number '" + std::string(text) + "'";
    case Kind::kUnterminatedString: return "unterminated string literal";
    case Kind::kStrayAmpersand: return "stray '&' (did you mean '&&'?)";
    case Kind::kStrayBar: return "stray '|' (did you mean '||'?)";
    case Kind::kUnexpectedCharacter:
      return "unexpected character '" + std::string(text) + "'";
    case Kind::kEmptyProgram: return "empty program";
    case Kind::kNoEmit: return "program never emits a state row";
    case Kind::kTooDeep:
      return "expression nested deeper than " + std::to_string(kMaxNesting) +
             " levels";
    case Kind::kExpected:
      return std::string("expected ") + token_type_name(expected) + " " +
             context + ", found " + token_type_name(found);
    case Kind::kEmptyRowName: return "emit row name is empty";
    case Kind::kExpectedStatement:
      return std::string("expected 'let' or 'emit', found ") +
             token_type_name(found);
    case Kind::kUnexpectedToken:
      return std::string("unexpected ") + token_type_name(found) +
             " in expression";
  }
  return "syntax error";
}

bool Lexer::next(Token& token, SyntaxError& error) {
  const std::string_view src = source_;
  const std::size_t n = src.size();
  std::size_t i = pos_;
  const auto fail = [&](SyntaxError::Kind kind, std::string_view text) {
    error = SyntaxError{};
    error.kind = kind;
    error.line = line_;
    error.text = text;
    pos_ = i;
    return false;
  };
  const auto emit = [&](TokenType type, std::size_t length) {
    token = Token{type, src.substr(i, length), 0.0, line_};
    pos_ = i + length;
    return true;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line_;
      ++i;
      continue;
    }
    if (is_space(c)) {
      ++i;
      continue;
    }
    if (c == '#') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (is_digit(c) || (c == '.' && i + 1 < n && is_digit(src[i + 1]))) {
      std::size_t end = i;
      while (end < n &&
             (is_digit(src[end]) || src[end] == '.' || src[end] == 'e' ||
              src[end] == 'E' ||
              ((src[end] == '+' || src[end] == '-') && end > i &&
               (src[end - 1] == 'e' || src[end - 1] == 'E')))) {
        ++end;
      }
      const std::string_view text = src.substr(i, end - i);
      double value = 0.0;
      if (!parse_number(text, value)) {
        return fail(SyntaxError::Kind::kMalformedNumber, text);
      }
      emit(TokenType::kNumber, text.size());
      token.number = value;
      return true;
    }
    if (is_alpha(c) || c == '_') {
      std::size_t end = i;
      while (end < n && (is_alpha(src[end]) || is_digit(src[end]) ||
                         src[end] == '_')) {
        ++end;
      }
      const std::string_view word = src.substr(i, end - i);
      TokenType type = TokenType::kIdentifier;
      if (word == "let") type = TokenType::kLet;
      if (word == "emit") type = TokenType::kEmit;
      return emit(type, word.size());
    }
    if (c == '"') {
      std::size_t end = i + 1;
      while (end < n && src[end] != '"' && src[end] != '\n') ++end;
      if (end >= n || src[end] != '"') {
        i = end;
        return fail(SyntaxError::Kind::kUnterminatedString, {});
      }
      token = Token{TokenType::kString, src.substr(i + 1, end - i - 1), 0.0,
                    line_};
      pos_ = end + 1;
      return true;
    }
    const bool two = i + 1 < n;
    const char second = two ? src[i + 1] : '\0';
    switch (c) {
      case '+': return emit(TokenType::kPlus, 1);
      case '-': return emit(TokenType::kMinus, 1);
      case '*': return emit(TokenType::kStar, 1);
      case '/': return emit(TokenType::kSlash, 1);
      case '%': return emit(TokenType::kPercent, 1);
      case '(': return emit(TokenType::kLParen, 1);
      case ')': return emit(TokenType::kRParen, 1);
      case '[': return emit(TokenType::kLBracket, 1);
      case ']': return emit(TokenType::kRBracket, 1);
      case ',': return emit(TokenType::kComma, 1);
      case ';': return emit(TokenType::kSemicolon, 1);
      case '?': return emit(TokenType::kQuestion, 1);
      case ':': return emit(TokenType::kColon, 1);
      case '=':
        return two && second == '=' ? emit(TokenType::kEqEq, 2)
                                    : emit(TokenType::kAssign, 1);
      case '<':
        return two && second == '=' ? emit(TokenType::kLessEq, 2)
                                    : emit(TokenType::kLess, 1);
      case '>':
        return two && second == '=' ? emit(TokenType::kGreaterEq, 2)
                                    : emit(TokenType::kGreater, 1);
      case '!':
        return two && second == '=' ? emit(TokenType::kNotEq, 2)
                                    : emit(TokenType::kBang, 1);
      case '&':
        if (two && second == '&') return emit(TokenType::kAndAnd, 2);
        return fail(SyntaxError::Kind::kStrayAmpersand, {});
      case '|':
        if (two && second == '|') return emit(TokenType::kOrOr, 2);
        return fail(SyntaxError::Kind::kStrayBar, {});
      default:
        return fail(SyntaxError::Kind::kUnexpectedCharacter, src.substr(i, 1));
    }
  }
  token = Token{TokenType::kEof, {}, 0.0, line_};
  pos_ = i;
  return true;
}

std::vector<Token> tokenize(std::string_view source) {
  std::vector<Token> tokens;
  Lexer lexer(source);
  Token token;
  SyntaxError error;
  do {
    if (!lexer.next(token, error)) {
      throw CompileError(error.message(), error.line);
    }
    tokens.push_back(token);
  } while (token.type != TokenType::kEof);
  return tokens;
}

}  // namespace nada::dsl
