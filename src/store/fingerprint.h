// Content-addressed candidate fingerprints.
//
// A Fingerprint is a 128-bit content hash with three producers:
//
//   * state sources — hashed via the canonical AST serialization
//     (dsl/canonical.h) so formatting- and alpha-equivalent programs
//     collide on purpose; sources that do not parse fall back to a hash of
//     the trimmed raw text (identical broken outputs still deduplicate),
//   * architectures — hashed via a canonical field-by-field encoding of
//     nn::ArchSpec (every field, fixed order, named),
//   * configurations — rl::TrainConfig plus the funnel budgets, so results
//     trained under different protocols never alias in the store.
//
// A candidate in the funnel is a (state, arch) pair; `combine` folds the
// two component fingerprints into the store key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "dsl/ast.h"
#include "nn/arch.h"
#include "rl/trainer.h"

namespace nada::store {

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const Fingerprint&) const = default;
  [[nodiscard]] bool is_zero() const { return hi == 0 && lo == 0; }

  /// 32 lowercase hex digits, hi first.
  [[nodiscard]] std::string hex() const;

  /// Parses `hex()` output; nullopt on malformed input.
  [[nodiscard]] static std::optional<Fingerprint> from_hex(
      std::string_view text);
};

/// Hash for Fingerprint-keyed unordered containers. Both halves are
/// already avalanched, so folding them is enough.
struct FingerprintHash {
  [[nodiscard]] std::size_t operator()(const Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp.hi ^ fp.lo);
  }
};

/// Hashes arbitrary text (two independent seeded FNV-1a streams, each
/// finished with a splitmix64 avalanche so `hi` is uniform enough for
/// range sharding).
[[nodiscard]] Fingerprint fingerprint_text(std::string_view text);

/// Order-sensitive fold of two fingerprints into one.
[[nodiscard]] Fingerprint combine(const Fingerprint& a, const Fingerprint& b);

/// Fingerprint of a state-function source: canonical AST hash when the
/// source parses, raw-text hash (distinct domain) otherwise. `parsed`, when
/// non-null, receives which of the two it was. Parses into a per-thread
/// Program and hashes as it serializes, so a warm call allocates nothing
/// (tests/fingerprint_alloc_test.cpp).
[[nodiscard]] Fingerprint fingerprint_state_source(const std::string& source,
                                                   bool* parsed = nullptr);

/// The canonical-domain hash of an already parsed program: what
/// fingerprint_state_source returns for every source that parses to it.
[[nodiscard]] Fingerprint fingerprint_state_program(
    const dsl::Program& program);

/// Canonical one-line encoding of every ArchSpec field, and its hash.
[[nodiscard]] std::string canonical_arch(const nn::ArchSpec& spec);
[[nodiscard]] Fingerprint fingerprint_arch(const nn::ArchSpec& spec);

/// Canonical one-line encoding of every TrainConfig field (the training
/// half of the store's config digest).
[[nodiscard]] std::string canonical_train_config(const rl::TrainConfig& c);

}  // namespace nada::store
