// The NadaScript builtin library.
//
// One registry serves every consumer: the bytecode compiler resolves call
// sites to indices in builtin_table(), the VM dispatches through it, and
// the tree-walk reference oracle in tests/ looks names up in builtins().
// The library intentionally covers the numeric toolbox the paper reports
// LLM-generated states drawing on: moving averages, variance, trends,
// linear-regression prediction (statsmodels in the paper), and
// Savitzky-Golay smoothing (scipy in the paper).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dsl/value.h"

namespace nada::dsl {

/// A builtin function: validated arity plus an implementation.
struct Builtin {
  std::size_t min_args = 1;
  std::size_t max_args = 1;
  std::string signature;  ///< human-readable, e.g. "ema(v, alpha)"
  std::function<Value(const std::vector<Value>&)> fn;
};

/// The builtin registry, keyed by function name. Built on first use and
/// never changed afterwards.
[[nodiscard]] const std::map<std::string, Builtin>& builtins();

/// One entry of the flat builtin table: the registry flattened in
/// name-sorted (std::map) order so call sites can be resolved to dense
/// indices once, at bytecode-compile time, instead of a map lookup per
/// call per step.
struct IndexedBuiltin {
  const std::string* name = nullptr;
  const Builtin* builtin = nullptr;
};

/// The builtin registry as a flat, index-addressable table. Indices are
/// stable for the process lifetime (the registry never changes after
/// first use).
[[nodiscard]] const std::vector<IndexedBuiltin>& builtin_table();

/// Index of `name` in builtin_table(), or -1 when unknown.
[[nodiscard]] int builtin_index(const std::string& name);

}  // namespace nada::dsl
