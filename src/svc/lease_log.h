// LeaseLog: the supervisor's crash-tolerant JSONL event journal.
//
// Every supervision decision is one appended-and-flushed JSON line:
//
//   {"event":"grant","ts_unix":...,"lease":3,"attempt":1,
//    "lo":"8000000000000000","hi":"bfffffffffffffff",
//    "journal":".../lease-3.nsb","parent":0}
//   {"event":"complete","ts_unix":...,"lease":3}
//   {"event":"revoke","ts_unix":...,"lease":3,"reason":"crash: exit 42"}
//   {"event":"spawn"|"restart"|"stale_kill"|"split"|"reassign"|"abort",...}
//
// Range bounds are hex strings (JSON doubles cannot carry full 64-bit
// precision). The grant/complete/revoke triple is the durable lease state:
// recover() replays the log into {outstanding, completed} so a supervisor
// restarted after a crash re-grants exactly the unfinished sub-ranges —
// their journals are still on disk, so the re-run is mostly cache hits.
// All other event types are operational history (the record the
// supervisor-smoke CI job asserts restarts and reassignments from) and are
// ignored by recovery. Torn tails are handled like the candidate store's:
// skipped on read, newline-terminated on append-open so the next line
// starts clean.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "store/shard.h"
#include "util/json.h"

namespace nada::svc {

/// One leasable unit of work: a sub-range of the fingerprint space, the
/// journal its worker appends to, and the heartbeat file the supervisor
/// watches. Equality of WHAT it computes is range-only — journal and
/// status paths are bookkeeping.
struct Lease {
  std::uint64_t id = 0;
  store::ShardPlan::Range range;
  std::string journal_path;
  /// Heartbeat snapshot (obs::StatusWriter) path; by convention
  /// journal_path + ".status.json", matching ShardRunner's workers.
  std::string status_path;
  /// How many times this range has been (re)granted after a failure. The
  /// command builder sees it (fault-injection flags only on attempt 0 in
  /// tests) and max_restarts bounds it.
  std::size_t attempt = 0;
  /// Lease this one was split from during straggler reassignment (0 =
  /// planned up front).
  std::uint64_t parent = 0;
};

class LeaseLog {
 public:
  /// Opens `path` for append (creating directories and file as needed),
  /// newline-terminating a torn tail first. Throws std::runtime_error when
  /// the file cannot be opened.
  explicit LeaseLog(std::string path);

  void grant(const Lease& lease);
  void complete(std::uint64_t lease_id);
  void revoke(std::uint64_t lease_id, const std::string& reason);

  /// Operational event with optional lease context (`lease_id` 0 = none)
  /// and free-form detail fields.
  void note(const std::string& event, std::uint64_t lease_id,
            const std::vector<std::pair<std::string, std::string>>& fields);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

  /// Durable lease state replayed from a log file. Unparsable (torn) lines
  /// are skipped and counted.
  struct Recovered {
    /// Granted, neither completed nor revoked — the work a restarted
    /// supervisor must re-grant. Keyed by lease id; `attempt` holds the
    /// LAST granted attempt.
    std::map<std::uint64_t, Lease> outstanding;
    /// Revoked and never re-granted (the failure happened right before the
    /// supervisor died): also work to re-grant.
    std::map<std::uint64_t, Lease> revoked;
    std::set<std::uint64_t> completed;
    /// Journal paths of completed leases (merge inputs).
    std::vector<std::string> completed_journals;
    std::uint64_t max_lease_id = 0;
    std::size_t skipped_lines = 0;
  };
  [[nodiscard]] static Recovered recover(const std::string& path);

  /// Every parsable event line, in order (test/CI helper).
  [[nodiscard]] static std::vector<util::JsonValue> read_events(
      const std::string& path);

 private:
  void append(util::JsonValue line);

  std::string path_;
  std::ofstream out_;
  std::uint64_t lines_ = 0;
};

/// Hex round-trip for full-precision 64-bit values inside JSON documents
/// (16 lowercase digits, zero-padded).
[[nodiscard]] std::string hex_u64(std::uint64_t value);
/// Parses hex_u64 output (and shorter hex strings); throws
/// std::runtime_error on malformed input.
[[nodiscard]] std::uint64_t parse_hex_u64(const std::string& text);

}  // namespace nada::svc
