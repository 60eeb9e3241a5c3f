// Small string helpers shared by the DSL front end and the report writers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nada::util {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// Joins with a separator.
std::string join(std::span<const std::string> parts, std::string_view sep);

/// Lowercases ASCII.
std::string to_lower(std::string_view text);

inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// FNV-1a 64-bit hash; used for the hashed n-gram "text embedding".
std::uint64_t fnv1a64(std::string_view text);

/// Seeded FNV-1a variant: folds `seed` into the offset basis so independent
/// hash streams can be derived from the same text (content fingerprints use
/// two streams for a 128-bit digest).
std::uint64_t fnv1a64(std::string_view text, std::uint64_t seed);

/// splitmix64 finalizer: full-avalanche bijective mixer, applied to FNV
/// outputs so fingerprint bits are uniform enough for range sharding.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Two seeded FNV-1a streams over one text, fed its consecutive pieces and
/// updated in one pass: after the pieces of `text`, first() and second()
/// equal fnv1a64(text, seed_a) and fnv1a64(text, seed_b). The two multiply
/// chains are independent, so hashing both costs about one.
class Fnv1a64Pair {
 public:
  Fnv1a64Pair(std::uint64_t seed_a, std::uint64_t seed_b)
      : a_(kFnv1a64Offset ^ mix64(seed_a)),
        b_(kFnv1a64Offset ^ mix64(seed_b)) {}

  void operator()(std::string_view piece) {
    for (const char c : piece) {
      a_ = (a_ ^ static_cast<std::uint8_t>(c)) * kFnv1a64Prime;
      b_ = (b_ ^ static_cast<std::uint8_t>(c)) * kFnv1a64Prime;
    }
  }

  [[nodiscard]] std::uint64_t first() const { return a_; }
  [[nodiscard]] std::uint64_t second() const { return b_; }

 private:
  std::uint64_t a_;
  std::uint64_t b_;
};

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string text, std::string_view from,
                        std::string_view to);

/// Fixed-precision human duration: "0.012ms" under a millisecond, "23.4ms"
/// under a second, "1.53s" under a minute, then "2m05s" / "1h02m". The one
/// formatter every duration a human reads goes through — StreamObserver
/// stage/window lines, status snapshots, driver summaries — so progress
/// output never degrades to raw doubles like "1.2e-05s". NaN prints "nan",
/// negatives keep their sign.
std::string format_duration(double seconds);

/// Shortest decimal representation that round-trips the double
/// (std::to_chars). Non-finite values print as "nan" / "inf" / "-inf".
/// Canonical encodings (fingerprints, store records) depend on this being
/// the single source of number formatting.
std::string shortest_double(double value);

/// Room for any shortest_double text.
inline constexpr std::size_t kShortestDoubleChars = 32;

/// shortest_double written into `buf` instead of a new string; the result
/// views `buf` or a literal.
std::string_view shortest_double(double value,
                                 std::span<char, kShortestDoubleChars> buf);

}  // namespace nada::util
