#include "store/shard.h"

#include <stdexcept>
#include <string_view>
#include <utility>

#include "store/record_codec.h"

namespace nada::store {

ShardPlan::ShardPlan(std::size_t num_shards) : num_shards_(num_shards) {
  if (num_shards == 0) {
    throw std::invalid_argument("ShardPlan: zero shards");
  }
}

std::size_t ShardPlan::shard_of(const Fingerprint& fp) const {
  // Multiply-shift range partition: monotone in fp.hi, so each shard owns
  // one contiguous range, and exact (no modulo bias at the boundaries).
  const auto product = static_cast<unsigned __int128>(fp.hi) *
                       static_cast<unsigned __int128>(num_shards_);
  return static_cast<std::size_t>(product >> 64);
}

ShardPlan::Range ShardPlan::range(std::size_t shard) const {
  if (shard >= num_shards_) {
    throw std::out_of_range("ShardPlan::range: shard index out of range");
  }
  // Smallest hi with shard_of == shard is ceil(shard * 2^64 / n).
  const auto lower_bound = [this](std::size_t s) -> std::uint64_t {
    const auto numerator = static_cast<unsigned __int128>(s) << 64;
    const auto n = static_cast<unsigned __int128>(num_shards_);
    return static_cast<std::uint64_t>((numerator + n - 1) / n);
  };
  Range r;
  r.lo = lower_bound(shard);
  r.hi = shard + 1 == num_shards_ ? ~std::uint64_t{0}
                                  : lower_bound(shard + 1) - 1;
  return r;
}

std::pair<ShardPlan::Range, ShardPlan::Range> split_range(
    ShardPlan::Range parent, std::uint64_t boundary) {
  if (boundary <= parent.lo || boundary > parent.hi) {
    throw std::invalid_argument(
        "split_range: boundary " + std::to_string(boundary) +
        " outside (" + std::to_string(parent.lo) + ", " +
        std::to_string(parent.hi) + "]");
  }
  return {ShardPlan::Range{parent.lo, boundary - 1},
          ShardPlan::Range{boundary, parent.hi}};
}

std::pair<ShardPlan::Range, ShardPlan::Range> split_midpoint(
    ShardPlan::Range parent) {
  if (!parent.splittable()) {
    throw std::invalid_argument(
        "split_midpoint: single-value range [" + std::to_string(parent.lo) +
        ", " + std::to_string(parent.hi) + "] is not splittable");
  }
  // lo + ceil(width/2) without overflow: width()-1 == hi-lo fits, and the
  // midpoint lands strictly inside (lo, hi] for every splittable range.
  return split_range(parent, parent.lo + (parent.hi - parent.lo) / 2 + 1);
}

std::size_t merge_shard_files(std::span<const std::string> shard_paths,
                              CandidateStore& dest, std::size_t* missing) {
  std::size_t accepted = 0;
  std::size_t absent = 0;
  for (const auto& path : shard_paths) {
    // Read-only decode (never open merge sources for append). Torn/foreign
    // records are skipped, as on any journal load.
    const auto scanned = scan_journal_file(
        path, kBinaryJournalMagic.size(),
        [&](std::uint64_t, std::string_view frame) {
          const auto record = decode_record(frame, dest.scope());
          if (record.has_value() && dest.put(*record)) ++accepted;
        });
    if (!scanned.has_value()) ++absent;
  }
  if (missing != nullptr) *missing = absent;
  return accepted;
}

}  // namespace nada::store
