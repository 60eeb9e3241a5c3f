// NadaScript recursive-descent parser.
//
// One core parses a source into a flat Program (ast.h) and reports the
// first syntax error by value. parse_into() refills an existing Program in
// place and hands the error back; parse() throws it as a CompileError.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "dsl/ast.h"
#include "dsl/lexer.h"

namespace nada::dsl {

/// Parses `source` into `out`, reusing its buffers: once they have grown
/// to a thread's largest source, parsing allocates nothing. Returns the
/// first syntax error, or nullopt when `out` holds the parsed program. The
/// error's text views `out.source()`, so it lives as long as `out` is left
/// unchanged. Which error is first, and its message, are exactly parse()'s.
[[nodiscard]] std::optional<SyntaxError> parse_into(std::string_view source,
                                                    Program& out);

/// Parses source into a Program; throws CompileError with the offending
/// line on any syntax error. An empty program (no statements) is an error,
/// as is a program that never emits a state row or an expression nested
/// more than kMaxNesting (256) levels deep (parentheses, brackets, call
/// arguments, unary operators, ternaries, and the operands of an operator
/// chain each count). A lexical error anywhere in the source outranks any
/// parse error.
[[nodiscard]] Program parse(std::string source);

}  // namespace nada::dsl
