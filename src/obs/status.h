// StatusWriter: live, atomically-replaced JSON status snapshots for long
// searches.
//
// A days-long, multi-worker search is only operable if something cheap and
// crash-tolerant says where each worker is RIGHT NOW. StatusWriter is a
// search::Observer that maintains one small JSON file per job:
//
//   * rewritten at every stage and window boundary, and at most once per
//     `min_interval_seconds` on candidate events (so a million-candidate
//     probe stage still heartbeats without a million rewrites),
//   * written atomically (tmp + rename, util::write_file_atomic), so a
//     `watch cat status.json`, or a supervisor polling worker liveness,
//     never reads a half-written snapshot,
//   * self-contained: current stage/window/stream position, per-event
//     counters, cumulative per-stage wall-clock totals, elapsed + ETA, and
//     start/heartbeat unix timestamps.
//
// Snapshot schema (all keys always present unless noted):
//
//   {"label":"lease-0","pid":4242,"state":"running"|"done",
//    "stage":"probe","window":3,"stream_position":64,
//    "total_candidates":1000,
//    "started_unix":...,"heartbeat_unix":...,
//    "elapsed_seconds":12.4,"elapsed":"12.40s",
//    "eta_seconds":181.0,"eta":"3m01s",          // once progress > 0
//    "counters":{"entered":64,"out_of_shard":40,"cache_hits":0,"failed":3,
//                "probed":18,"early_stopped":5,"trained":0,"windows":2},
//    "stage_seconds":{"generate":0.01,"precheck":1.2,"probe":10.9},
//    "stage_runs":{"generate":3,"precheck":3,"probe":3}}
//
// (counters.out_of_shard counts candidates outside the job's fingerprint
// range; the name predates ranges and stays for compatibility.)
//
// Pure readout: a job with a StatusWriter attached computes bit-identical
// results to one without. read_status / aggregate_status are the driver
// side: parse worker snapshots and merge them (heartbeat ages, summed
// counters, per-worker list) into one cluster-level status document.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "search/observer.h"
#include "util/json.h"

namespace nada::obs {

struct StatusConfig {
  std::string path;   ///< snapshot file (parent directory must exist)
  std::string label;  ///< e.g. "lease-0", "driver", "single"
  /// Stream length when known; 0 disables the ETA estimate.
  std::size_t total_candidates = 0;
  /// Floor between candidate-event-driven rewrites. Stage and window
  /// boundaries always rewrite.
  double min_interval_seconds = 1.0;
};

class StatusWriter : public search::Observer {
 public:
  /// Writes the initial "running" snapshot immediately; throws
  /// std::runtime_error when `config.path` is not writable.
  explicit StatusWriter(StatusConfig config);

  /// Final snapshot unless finish() already wrote it (never throws).
  ~StatusWriter() override;

  void on_stage_start(search::StageKind stage) override;
  void on_stage_finish(const search::StageEvent& event) override;
  void on_candidate(const search::CandidateEvent& event) override;
  void on_window_start(std::size_t index, std::size_t first) override;
  void on_window_finish(const search::WindowEvent& event) override;

  /// Writes the terminal snapshot (`"state": "done"`, heartbeat updated).
  /// Call when the job completes; idempotent.
  void finish();

  [[nodiscard]] const std::string& path() const { return config_.path; }
  /// Snapshots actually written (rate-limited candidate events excluded).
  [[nodiscard]] std::uint64_t writes() const;

 private:
  struct StageTotals {
    std::uint64_t runs = 0;
    double seconds = 0.0;
  };

  void write_locked(bool force);
  [[nodiscard]] util::JsonValue snapshot_locked() const;

  StatusConfig config_;
  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point start_;
  double started_unix_ = 0.0;
  std::chrono::steady_clock::time_point last_write_{};
  std::uint64_t writes_ = 0;
  bool finished_ = false;

  std::string state_ = "running";
  std::string stage_ = "";
  std::size_t window_ = 0;
  std::size_t stream_position_ = 0;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, StageTotals> stages_;
};

/// One parsed worker/driver snapshot, schema-tolerant (missing keys become
/// zeros/empties) so a newer driver can read an older worker's file.
struct StatusSnapshot {
  std::string label;
  std::string state;
  std::string stage;
  std::size_t window = 0;
  std::size_t stream_position = 0;
  std::size_t total_candidates = 0;
  double elapsed_seconds = 0.0;
  double started_unix = 0.0;
  double heartbeat_unix = 0.0;
  std::map<std::string, std::uint64_t> counters;
  util::JsonValue raw;  ///< the full document, for fields not lifted here

  [[nodiscard]] bool done() const { return state == "done"; }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Parses a status file; nullopt when the file is missing or unparsable
/// (a worker that never started, or died before its first snapshot).
[[nodiscard]] std::optional<StatusSnapshot> read_status(
    const std::string& path);

/// Decodes an in-memory status document (exposed for aggregate payloads).
[[nodiscard]] StatusSnapshot decode_status(util::JsonValue document);

/// Liveness verdict for one worker slot, judged from its status snapshot
/// (the passive-telemetry signal the supervisor's restart/reassignment
/// decisions run on — see docs/SERVICE.md):
///   kMissing — no parsable snapshot (never started, or died pre-write),
///   kOk      — done, or heartbeat age within the staleness threshold,
///   kStale   — alive on paper but heartbeat older than the threshold.
enum class WorkerHealth { kOk, kStale, kMissing };

[[nodiscard]] const char* worker_health_name(WorkerHealth health);

/// Classifies one snapshot against `staleness_threshold_seconds`. A done
/// worker is never stale (it will not heartbeat again, by design); a
/// threshold <= 0 disables staleness entirely (every reporting worker is
/// kOk).
[[nodiscard]] WorkerHealth classify_worker(
    const std::optional<StatusSnapshot>& worker, double now_unix,
    double staleness_threshold_seconds);

/// The driver-side merge: all worker snapshots in one document —
///   {"kind":"aggregate","generated_unix":...,"n_workers":N,"n_reporting":r,
///    "n_done":d,"heartbeat_age_max_seconds":...,"stream_position_total":...,
///    "staleness_threshold_seconds":...,
///    "health":{"ok":...,"stale":...,"missing":...},
///    "worker_health":["ok"|"stale"|"missing" per slot],
///    "counters":{summed...},"workers":[per-worker docs, missing => null]}
/// `now_unix` feeds the heartbeat ages (pass the current wall clock);
/// `staleness_threshold_seconds` feeds the ok|stale|missing classification
/// (<= 0, the default, never marks a worker stale). Schema history in
/// docs/OBSERVABILITY.md.
[[nodiscard]] util::JsonValue aggregate_status(
    const std::vector<std::optional<StatusSnapshot>>& workers,
    double now_unix, double staleness_threshold_seconds = 0.0);

/// Current wall clock as unix seconds (the `now_unix` for aggregate_status
/// and the timestamp source every obs sink shares).
[[nodiscard]] double unix_now();

}  // namespace nada::obs
