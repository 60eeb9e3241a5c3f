// Canonical serialization of NadaScript ASTs.
//
// Two candidate programs that differ only in formatting — whitespace,
// comments, redundant parentheses, number spellings (2 vs 2.0), or the
// names chosen for `let` bindings — describe the same state function. The
// canonical form normalizes all of that away so the content-addressed
// candidate store (src/store/) can hash alpha-equivalent programs to the
// same fingerprint:
//
//   * every expression is fully parenthesized (grammar precedence erased),
//   * numbers print as their shortest round-trip decimal form,
//   * `let` bindings are renamed v0, v1, ... in binding order; observation
//     inputs and emitted row names keep their real (semantic) names.
#pragma once

#include <string>

#include "dsl/ast.h"

namespace nada::dsl {

/// One statement per line: `let vN = <expr>;` / `emit "name" = <expr>;`.
[[nodiscard]] std::string canonical_source(const Program& program);

}  // namespace nada::dsl
