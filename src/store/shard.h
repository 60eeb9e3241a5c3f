// Fingerprint-range planning and journal merging for multi-worker searches.
//
// A ShardPlan splits the 64-bit fingerprint `hi` space into N contiguous,
// equal-width ranges; the supervisor plans its initial leases with it and
// splits stragglers' ranges with split_midpoint. Every worker runs the
// same generator stream, keeps only the candidates whose fingerprint falls
// in its range, journals into its own store file, and a final merge
// (merge_shard_files) unions the worker journals. Because assignment is by
// content hash, the partition is stable across runs, machines, and
// candidate orderings — the properties systematic coverage tracking needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "store/candidate_store.h"
#include "store/fingerprint.h"

namespace nada::store {

class ShardPlan {
 public:
  /// Splits the fingerprint space across `num_shards` workers (>= 1).
  explicit ShardPlan(std::size_t num_shards);

  [[nodiscard]] std::size_t num_shards() const { return num_shards_; }

  /// Which shard owns a fingerprint. In [0, num_shards).
  [[nodiscard]] std::size_t shard_of(const Fingerprint& fp) const;

  /// Inclusive bounds [lo, hi] on Fingerprint::hi for shard `i`. Ranges
  /// are contiguous and cover the whole 64-bit space exactly once.
  struct Range {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    [[nodiscard]] bool operator==(const Range&) const = default;
    /// Membership is on Fingerprint::hi, matching shard_of.
    [[nodiscard]] bool contains(const Fingerprint& fp) const {
      return fp.hi >= lo && fp.hi <= hi;
    }
    /// Number of distinct hi values covered; 0 means the full 2^64 space
    /// (the count does not fit in 64 bits).
    [[nodiscard]] std::uint64_t width() const { return hi - lo + 1; }
    /// A single-hi-value range cannot be split further.
    [[nodiscard]] bool splittable() const { return lo < hi; }
  };
  [[nodiscard]] Range range(std::size_t shard) const;

 private:
  std::size_t num_shards_;
};

/// Splits `parent` at `boundary` into ([lo, boundary-1], [boundary, hi]).
/// The two halves partition the parent exactly: no gap, no overlap, and the
/// union of fingerprints they contain is the parent's set bit-for-bit.
/// Requires parent.lo < boundary <= parent.hi (throws std::invalid_argument
/// otherwise — a boundary at parent.lo would make the left half empty, and
/// a single-hi-value range is not splittable).
[[nodiscard]] std::pair<ShardPlan::Range, ShardPlan::Range> split_range(
    ShardPlan::Range parent, std::uint64_t boundary);

/// split_range at the midpoint: the left half gets ceil(width/2) of the hi
/// values. Requires parent.splittable().
[[nodiscard]] std::pair<ShardPlan::Range, ShardPlan::Range> split_midpoint(
    ShardPlan::Range parent);

/// Reads each worker journal (read-only) and unions its records into
/// `dest` under dest's scope. Returns the number of records accepted into
/// dest. A missing path is skipped and counted in `*missing` when non-null:
/// a worker that died before its first append leaves no journal, and
/// whatever the merged store lacks, the driver's funnel pass recomputes
/// (bit-identically, since per-candidate seeds are fingerprint-derived). A
/// path that exists but is not a binary journal throws std::runtime_error.
std::size_t merge_shard_files(std::span<const std::string> shard_paths,
                              CandidateStore& dest,
                              std::size_t* missing = nullptr);

}  // namespace nada::store
