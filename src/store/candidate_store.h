// Persistent, content-addressed store of candidate outcomes.
//
// The store is the funnel's memory between runs: an append-only journal
// of per-candidate results keyed by (fingerprint, environment,
// train-config digest). The pipeline checkpoints into it after every
// funnel stage, so
//
//   * a rerun over the same candidate stream skips straight to the
//     recorded results (zero duplicate probes or full trainings),
//   * a run killed mid-funnel resumes from whatever the journal holds —
//     load-on-open tolerates a torn final append (the crash case) by
//     dropping it,
//   * shard stores produced by independent workers merge by union, with
//     the furthest-progressed record winning per fingerprint.
//
// The journal is binary (docs/STORE_FORMAT.md): length-prefixed,
// checksummed frames behind an "NSBJRNL1" magic, plus an mmap'd
// fingerprint->offset sidecar ("<journal>.idx"), so open() costs O(index)
// instead of O(records) and lookup() deserializes exactly one frame. The
// open indexes whatever the sidecar does not cover through one scan
// (store::scan_journal_file), and trusts the sidecar's entries only where
// an intact frame starts at their end. A file without the magic (such as a
// legacy JSONL journal) is refused; JSONL lives on only as the
// export/import format of tools/store_convert.
//
// Records carry a Stage marking how far through the funnel the work
// products go; `put` is append-only and monotone (a record never regresses
// the stage already journaled for its fingerprint, and same-stage
// duplicates are not re-appended, so steady-state reruns do not grow the
// file). All public methods are thread-safe. Lookups run concurrently: one
// holds the store's mutex only to search the entries indexed since open,
// then searches the sidecar (which does not change while the store is open)
// and reads and decodes the frame outside it, into a buffer of the calling
// thread (an indexed frame's bytes never change, since put() flushes a
// frame before it publishes the frame's index entry). A job's fingerprint
// pass looks up a whole window this way on its pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/arch.h"
#include "obs/metrics.h"
#include "store/fingerprint.h"
#include "store/mmap_index.h"

namespace nada::store {

/// How far through the funnel a record's results go.
enum class Stage : int {
  kChecked = 0,  ///< compile + normalization results
  kProbed = 1,   ///< + early-training probe rewards
  kTrained = 2,  ///< + full-scale training scores and curves
};

[[nodiscard]] const char* stage_name(Stage stage);

/// The work products of one candidate's trip through the funnel. A
/// search::CandidateOutcome is this record plus its stream position and the
/// per-run selection verdict (early_stopped), which depends on the cohort,
/// not the candidate; the funnel journals the outcome itself.
struct OutcomeRecord {
  Fingerprint fingerprint;
  Stage stage = Stage::kChecked;
  std::string id;                    ///< generator id of the first sighting
  std::string source;                ///< state source / arch description
  std::optional<nn::ArchSpec> arch;  ///< architecture candidates only
  bool compiled = false;
  std::string compile_error;
  bool normalized = false;
  std::string normalization_error;
  bool early_probed = false;
  std::vector<double> early_rewards;
  bool fully_trained = false;
  double test_score = -1e9;
  double emulation_score = 0.0;
  std::vector<double> curve_epochs;
  std::vector<double> median_curve;
};

/// Scope of a store: results are only comparable within one environment
/// and one training protocol, so both are part of every journal record and
/// are verified at load.
struct StoreScope {
  std::string env;            ///< trace::environment_name of the dataset
  std::string config_digest;  ///< Fingerprint::hex of the funnel config

  [[nodiscard]] bool operator==(const StoreScope&) const = default;
};

class CandidateStore {
 public:
  /// Opens (creating if absent) the binary journal at `path`, whatever its
  /// extension. Records from a different scope or with corrupt/torn
  /// encodings are skipped and counted in `recovered_line_errors()`. The
  /// journal opens through its mmap'd sidecar index when that covers it; a
  /// sidecar that is behind, with an intact frame where it stops, costs a
  /// scan of only the un-indexed tail, and any other sidecar (missing,
  /// corrupt, foreign, or under a replaced journal) a scan from the magic.
  /// Throws std::runtime_error when the file exists but lacks the binary
  /// magic (a legacy JSONL journal: tools/store_convert migrates it),
  /// leaving the file untouched.
  CandidateStore(std::string path, StoreScope scope);
  ~CandidateStore();

  CandidateStore(const CandidateStore&) = delete;
  CandidateStore& operator=(const CandidateStore&) = delete;

  /// Latest-stage record for a fingerprint. Reads exactly one frame from
  /// disk, outside the store's mutex, so lookups from several threads run
  /// side by side (and beside put()); a frame that fails its checksum or
  /// holds another fingerprint's record is counted in
  /// recovered_line_errors() and reported as a miss.
  [[nodiscard]] std::optional<OutcomeRecord> lookup(
      const Fingerprint& fp) const;

  /// Journals a record. Monotone per fingerprint: ignored entirely when
  /// the indexed record already reached `record.stage`. Appends one frame
  /// and flushes before returning, so a crash after put() never loses the
  /// record; an append that fails (disk full, I/O error) throws rather
  /// than silently dropping durability. Returns true when the record was
  /// accepted.
  bool put(const OutcomeRecord& record);

  /// Number of distinct fingerprints indexed.
  [[nodiscard]] std::size_t size() const;

  /// Snapshot of the latest record per fingerprint, in first-sighting
  /// order. The one deliberately O(records) call: it re-scans the journal
  /// (merge paths and tests want the full set; the funnel itself never
  /// calls it).
  [[nodiscard]] std::vector<OutcomeRecord> records() const;

  /// Attaches a profiling registry (pure readout, never changes journal
  /// bytes): lookup()/put() latencies land in store.lookup.seconds /
  /// store.append.seconds, volumes in store.lookups, store.lookup_hits,
  /// store.appends, store.appends_accepted. Pass nullptr to detach. The
  /// registry must outlive the store (SearchJob wires its
  /// JobOptions::metrics in here automatically).
  void set_metrics(obs::MetricsRegistry* metrics);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const StoreScope& scope() const { return scope_; }
  [[nodiscard]] std::size_t recovered_line_errors() const {
    return line_errors_.load(std::memory_order_relaxed);
  }

  /// Frames deserialized since open (the open's scan, lookup and records()
  /// reads). The allocation guard for "open() materializes nothing": after
  /// an indexed open this is 0, and a cache-hit lookup raises it by
  /// exactly 1.
  [[nodiscard]] std::size_t decoded_frames() const {
    return decoded_frames_.load(std::memory_order_relaxed);
  }

  /// The JSONL export encoding of one record (a thin wrapper over
  /// store/record_codec.h): what tools/store_convert writes per line, and
  /// the canonical text for comparing record sets.
  [[nodiscard]] static std::string encode_line(const OutcomeRecord& record,
                                               const StoreScope& scope);

 private:
  struct DeltaEntry {
    std::uint64_t offset = 0;  ///< frame start in the journal
    Stage stage = Stage::kChecked;
  };

  /// Indexes the journal through the one scan, from the validated
  /// sidecar's covered_bytes or from the magic. Returns true when the
  /// sidecar needs persisting (the scan indexed what it did not cover).
  bool load();
  /// Scans the journal from byte `from` into delta_, counting failed
  /// decodes and truncating a torn tail. Returns false, indexing nothing,
  /// when base_ is open but no intact frame starts at `from` and the
  /// journal does not end there.
  bool index_from(std::uint64_t from);
  /// Latest stage for a fingerprint (delta wins over the sidecar).
  std::optional<DeltaEntry> entry_locked(const Fingerprint& fp) const;
  /// The sidecar's entry for a fingerprint. Needs no lock: base_ is mapped
  /// and remapped only by the constructor and the destructor.
  std::optional<DeltaEntry> base_entry(const Fingerprint& fp) const;
  /// Reads + decodes the frame at `offset`, which must end by `end` (the
  /// journal length when its index entry was found); counts a line error
  /// and returns nullopt on a short read, checksum/decode failure or a
  /// record other than `fp`'s. Runs outside mutex_.
  std::optional<OutcomeRecord> read_frame(const Fingerprint& fp,
                                          std::uint64_t offset,
                                          std::uint64_t end) const;
  /// Merges the mmap'd base index with the in-memory delta and persists
  /// the sidecar. Best-effort in the destructor, loud elsewhere.
  void persist_index_locked();
  std::string index_path() const { return path_ + ".idx"; }
  std::uint64_t scope_hash() const;
  /// Opens out_ (writing the magic into a new journal) and read_fd_.
  void open_append_handle();

  mutable std::mutex mutex_;
  // atomic, not mutex-guarded: lookup/put read it before taking mutex_ so
  // the recorded latency includes lock wait (the contended part).
  std::atomic<obs::MetricsRegistry*> metrics_{nullptr};
  std::string path_;
  StoreScope scope_;
  std::ofstream out_;  ///< append handle, kept open for the store's life
  /// Read-only descriptor for on-demand frame loads: pread at a frame's
  /// offset, outside mutex_, into a buffer of the calling thread. Opened in
  /// the constructor and closed only in the destructor.
  int read_fd_ = -1;

  // Offsets only; frames are read on demand.
  /// mmap'd sidecar (may be closed when journal is new). Mapped by the
  /// constructor and remapped only by persist_index_locked, which runs in
  /// the constructor and the destructor alone: lookups read it unlocked.
  MmapIndex base_;
  // fingerprint -> entry for records appended/upgraded since the sidecar
  // was built (overrides base_).
  std::unordered_map<Fingerprint, DeltaEntry, FingerprintHash> delta_;
  std::size_t distinct_ = 0;        ///< distinct fingerprints (base + new)
  std::uint64_t append_offset_ = 0; ///< journal byte length
  bool index_dirty_ = false;

  mutable std::atomic<std::size_t> line_errors_{0};
  mutable std::atomic<std::size_t> decoded_frames_{0};
};

/// Default journal location: $NADA_STORE_DIR (default "nada_store")
/// /<env>-<digest prefix>.nsb.
[[nodiscard]] std::string default_store_path(const StoreScope& scope);

}  // namespace nada::store
