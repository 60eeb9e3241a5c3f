// Canonical serialization of NadaScript programs.
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
//
// One serializer writes the form piece by piece through a sink: into a
// string for canonical_source(), or straight into the fingerprint's two
// hash streams (store/fingerprint.cpp), which never build the string.
#pragma once

#include <string>

#include "dsl/ast.h"
#include "util/strings.h"

namespace nada::dsl {

/// One statement per line: `let vN = <expr>;` / `emit "name" = <expr>;`.
[[nodiscard]] std::string canonical_source(const Program& program);

/// Feeds the bytes of canonical_source(program) to `hasher`, in order,
/// without building them as a string.
void hash_canonical(const Program& program, util::Fnv1a64Pair& hasher);

}  // namespace nada::dsl
