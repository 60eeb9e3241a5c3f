// NadaScript recursive-descent parser.
#pragma once

#include <string_view>

#include "dsl/ast.h"

namespace nada::dsl {

/// Parses source into a Program; throws CompileError with the offending
/// line on any syntax error. An empty program (no statements) is an error,
/// as is a program that never emits a state row or an expression nested
/// more than 256 levels deep (parentheses, brackets, call arguments, unary
/// operators, ternaries, and the operands of an operator chain each count).
[[nodiscard]] Program parse(std::string_view source);

}  // namespace nada::dsl
