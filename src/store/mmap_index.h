// Memory-mapped fingerprint -> journal-offset index for binary stores.
//
// The sidecar (`<journal>.idx`) makes opening a million-record journal
// O(index) instead of O(records): a fixed header plus a sorted array of
// 32-byte entries (fingerprint hi/lo, byte offset of the record's frame in
// the journal, furthest stage journaled). CandidateStore mmaps it
// read-only, binary-searches lookups, and reads exactly one frame from the
// journal per hit.
//
// The sidecar is always rebuildable from the journal — it is a cache, not
// a source of truth. The header carries everything needed to detect a
// stale or foreign sidecar without touching the journal's records:
//
//   * `covered_bytes` — the journal length the entries describe. Journal
//     longer, with an intact frame starting at covered_bytes: the index is
//     merely behind; only the tail needs scanning. Journal longer with no
//     frame there, or shorter: the journal was replaced or rewritten under
//     the sidecar (a copy, an import, manual surgery); full scan.
//   * `scope_hash` — hash of the owning scope (env + config digest), so a
//     store never trusts entries built under someone else's scope filter.
//   * `entries_hash` — word-wise mix hash over the entry bytes; a corrupt
//     or truncated sidecar fails validation and is rebuilt.
//
// Writes go through the atomic tmp+rename path, so readers never map a
// half-written sidecar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "store/fingerprint.h"

namespace nada::store {

class MmapIndex {
 public:
  struct Entry {
    std::uint64_t hi = 0;      ///< Fingerprint::hi
    std::uint64_t lo = 0;      ///< Fingerprint::lo
    std::uint64_t offset = 0;  ///< frame start in the journal (>= magic)
    std::uint32_t stage = 0;   ///< furthest store::Stage journaled
    std::uint32_t reserved = 0;
  };
  static_assert(sizeof(Entry) == 32, "on-disk entry layout");

  MmapIndex() = default;
  ~MmapIndex();
  MmapIndex(const MmapIndex&) = delete;
  MmapIndex& operator=(const MmapIndex&) = delete;
  MmapIndex(MmapIndex&& other) noexcept;
  MmapIndex& operator=(MmapIndex&& other) noexcept;

  /// Maps and validates the sidecar at `path`. Returns false — leaving the
  /// index closed — when the file is missing, malformed, fails its entry
  /// checksum, is unsorted, or was built under a different scope hash.
  bool open(const std::string& path, std::uint64_t scope_hash);

  void close();
  [[nodiscard]] bool is_open() const { return entries_ != nullptr; }

  /// Binary search by (hi, lo).
  [[nodiscard]] std::optional<Entry> find(const Fingerprint& fp) const;

  [[nodiscard]] std::size_t size() const { return n_entries_; }
  /// Journal byte length the entries describe.
  [[nodiscard]] std::uint64_t covered_bytes() const { return covered_bytes_; }
  /// Entry array view (for merging with in-memory deltas).
  [[nodiscard]] const Entry* entries() const { return entries_; }

  /// Writes a sidecar atomically (tmp + rename). `entries` must be sorted
  /// ascending by (hi, lo) and unique; throws std::invalid_argument when
  /// not, std::runtime_error on I/O failure.
  static void write(const std::string& path,
                    const std::vector<Entry>& entries,
                    std::uint64_t covered_bytes, std::uint64_t scope_hash);

  /// Hash folding a store scope into the header (env + '\n' + digest).
  [[nodiscard]] static std::uint64_t scope_hash(const std::string& env,
                                                const std::string& digest);

 private:
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  const Entry* entries_ = nullptr;
  std::size_t n_entries_ = 0;
  std::uint64_t covered_bytes_ = 0;
};

}  // namespace nada::store
