// Supervisor: the multi-worker search driver — elastic work-queue
// sharding with crash restart and straggler reassignment over the
// journals-as-only-coupling design.
//
// WHERE a candidate executes cannot change WHAT it computes: range
// membership is by content fingerprint and per-candidate seeds are
// fingerprint-derived (search::ShardRunner pins any partition against a
// single-process run). The supervisor turns that into fault tolerance: the
// fingerprint space becomes a work QUEUE of leasable sub-ranges,
//
//   * each idle worker slot is granted the next pending lease — a
//     store::ShardPlan::Range plus its own journal file — recorded in a
//     crash-tolerant JSONL LeaseLog before the worker process spawns,
//   * the supervisor owns its workers (fork/exec + waitpid) and watches
//     the obs::StatusWriter heartbeat file every worker already writes,
//   * a worker that DIES (nonzero exit, signal) has its lease re-granted
//     with the SAME journal: the partial journal is intact (torn tail
//     dropped on reopen), so the replacement serves finished candidates
//     from cache and executes only the remainder,
//   * a worker that STALLS (alive, heartbeat older than the staleness
//     threshold) is killed and its range is SPLIT at the fingerprint
//     midpoint into two fresh leases that idle workers pick up (the split
//     is a durable lease-log line, so a resumed supervisor re-runs the
//     children, never the parent); the straggler's partial journal still
//     merges at the end,
//   * a worker that exits with the fail-fast code (bad arguments — a
//     config bug every restart would reproduce) aborts the run instead of
//     burning restarts,
//   * the final merge unions every journal any attempt ever wrote —
//     partial journals from killed workers merge like any other, which is
//     exactly what the store's monotone stage-upgrade semantics were built
//     for. Anything lost entirely is recomputed bit-identically by the
//     driver's funnel pass.
//
// Equivalence contract: a supervised run with any schedule of crashes,
// stalls, splits, and restarts produces byte-identical rankings and
// journal record sets to an uninterrupted single-process run
// (tests/svc_test.cpp and CI's supervised smoke run pin it).
//
// The supervisor is itself crash-tolerant: on start it replays an
// existing lease log and re-grants exactly the unfinished sub-ranges.
// A static N-way run is the degenerate policy: N leases on N workers,
// max_restarts = 0, heartbeat_timeout_seconds = 0 (no straggler policy).
// Policy details and the lease-log format: docs/SERVICE.md.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "svc/lease_log.h"
#include "svc/process.h"
#include "util/json.h"

namespace nada::svc {

/// Worker exit code that means "config bug, every restart would fail the
/// same way": the supervisor aborts the run instead of restarting. The
/// worker CLIs exit with it on bad arguments (tools::kExitUsage).
inline constexpr int kFailFastExitCode = 2;

struct SupervisorConfig {
  /// Concurrent worker processes (slots). >= 1.
  std::size_t num_workers = 2;
  /// Initial sub-range leases the fingerprint space is split into
  /// (store::ShardPlan ranges). 0 = num_workers; more than num_workers
  /// makes the queue elastic from the start (finer-grained stealing).
  std::size_t initial_leases = 0;
  /// Re-grants a failed lease allows before the run fails. Counts crash
  /// restarts and stale kills alike; split children inherit
  /// parent.attempt + 1 so a heritable fault cannot split forever.
  std::size_t max_restarts = 3;
  /// Heartbeat age (seconds) past which a live worker counts as stalled
  /// and is killed + reassigned. <= 0 disables staleness handling. The
  /// reference point is max(spawn time, last heartbeat), so a stale file
  /// left by a previous attempt never condemns a fresh worker.
  double heartbeat_timeout_seconds = 30.0;
  /// Supervision loop cadence.
  double poll_interval_seconds = 0.05;
  /// Directory for lease journals, the lease log, and the cluster status.
  std::string dir = "nada_svc";
  /// File-name prefix inside `dir` (derive it from the store scope so
  /// concurrent searches never collide): lease journals are
  /// "<dir>/<prefix>lease-<id>.nsb", the lease/event log is
  /// "<dir>/<prefix>supervisor.jsonl" and the live cluster status JSON
  /// (atomically replaced each refresh) is "<dir>/<prefix>cluster.json".
  std::string prefix;
  double cluster_status_interval_seconds = 1.0;
  /// Replay an existing event log and resume its unfinished leases
  /// instead of planning afresh.
  bool resume = true;
};

/// Builds the argv for one lease's worker process. Called on every grant
/// (including re-grants); `lease.attempt` distinguishes first attempts
/// from restarts, which is how tests inject faults into attempt 0 only.
/// The command must journal into lease.journal_path, heartbeat into
/// lease.status_path, and execute exactly the candidates in lease.range.
/// It must be the worker itself, or a shell that `exec`s it: a kill
/// signals only the spawned pid, so a worker running as a shell's child
/// would outlive its lease (and keep the shell's stdout open). Workers
/// stay in the supervisor's process group, so a terminal's Ctrl-C or a
/// group kill of the supervisor still reaches them.
using CommandBuilder = std::function<std::vector<std::string>(const Lease&)>;

struct SupervisorReport {
  bool success = false;
  std::string error;  ///< set when !success
  std::size_t leases_planned = 0;    ///< initial queue (or recovered)
  std::size_t leases_completed = 0;  ///< exited 0, lease marked complete
  std::size_t spawned = 0;           ///< worker processes launched
  std::size_t crash_restarts = 0;    ///< re-grants after death
  std::size_t stale_kills = 0;       ///< stragglers killed
  std::size_t splits = 0;            ///< ranges split for reassignment
  /// Every journal path any lease ever owned (deduplicated, grant order).
  /// Partial journals of failed attempts included — merging them is how
  /// killed workers' finished candidates avoid re-execution downstream.
  std::vector<std::string> journal_paths;
  std::string event_log_path;       ///< "<dir>/<prefix>supervisor.jsonl"
  std::string cluster_status_path;  ///< "<dir>/<prefix>cluster.json"
};

class Supervisor {
 public:
  /// Throws std::invalid_argument on a degenerate config (zero workers,
  /// empty dir, non-positive poll interval).
  Supervisor(SupervisorConfig config, CommandBuilder command);

  /// Runs the whole schedule to completion (or failure): plans/recovers
  /// leases, spawns and supervises workers, restarts, reassigns, and
  /// returns when the queue is drained and every worker has exited. On
  /// failure (fail-fast exit or max_restarts exhausted) every running
  /// worker is killed and reaped before returning. Single-shot.
  [[nodiscard]] SupervisorReport run();

  /// The supervisor's own live view: worker heartbeat snapshots aggregated
  /// with obs::aggregate_status (staleness classified against the
  /// configured timeout) plus a "supervisor" section with queue/restart
  /// gauges. Written to cluster_status_path every
  /// cluster_status_interval_seconds while run() executes.
  [[nodiscard]] util::JsonValue cluster_status() const;

 private:
  struct Slot {
    Lease lease;
    ChildProcess process;
    double spawn_unix = 0.0;
  };

  [[nodiscard]] std::string lease_journal_path(std::uint64_t id) const;
  [[nodiscard]] Lease make_lease(std::uint64_t id,
                                 store::ShardPlan::Range range,
                                 std::size_t attempt, std::uint64_t parent);
  void plan_or_recover();
  void spawn_pending();
  /// Handles one dead worker; returns false when the run must abort.
  [[nodiscard]] bool handle_exit(Slot& slot, const ExitStatus& status);
  void check_staleness();
  void write_cluster_status();
  void fail(const std::string& error);
  void track_journal(const std::string& path);

  SupervisorConfig config_;
  CommandBuilder command_;
  std::optional<LeaseLog> log_;
  std::deque<Lease> pending_;
  std::vector<Slot> slots_;
  std::uint64_t next_lease_id_ = 1;
  SupervisorReport report_;
  bool started_ = false;
  bool failed_ = false;
  double last_status_write_ = 0.0;
};

}  // namespace nada::svc
