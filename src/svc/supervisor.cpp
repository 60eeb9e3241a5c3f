#include "svc/supervisor.h"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/status.h"
#include "store/shard.h"
#include "util/fs.h"

namespace nada::svc {

namespace {

std::string default_path(const SupervisorConfig& config,
                         const std::string& leaf) {
  return config.dir + "/" + config.prefix + leaf;
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig config, CommandBuilder command)
    : config_(std::move(config)), command_(std::move(command)) {
  if (config_.num_workers == 0) {
    throw std::invalid_argument("Supervisor: num_workers must be >= 1");
  }
  if (config_.dir.empty()) {
    throw std::invalid_argument("Supervisor: dir must be set");
  }
  if (!(std::isfinite(config_.poll_interval_seconds) &&
        config_.poll_interval_seconds > 0.0)) {
    throw std::invalid_argument(
        "Supervisor: poll interval must be finite and > 0");
  }
  // +infinity is valid in both ("never stale", "never write the status");
  // NaN compares false both ways and would read as "always".
  if (std::isnan(config_.heartbeat_timeout_seconds)) {
    throw std::invalid_argument("Supervisor: heartbeat timeout is NaN");
  }
  if (std::isnan(config_.cluster_status_interval_seconds)) {
    throw std::invalid_argument("Supervisor: cluster status interval is NaN");
  }
  if (!command_) {
    throw std::invalid_argument("Supervisor: command builder must be set");
  }
  if (config_.initial_leases == 0) config_.initial_leases = config_.num_workers;
  report_.event_log_path = default_path(config_, "supervisor.jsonl");
  report_.cluster_status_path = default_path(config_, "cluster.json");
}

std::string Supervisor::lease_journal_path(std::uint64_t id) const {
  // Candidate journals are binary; the supervisor's own event log stays
  // JSONL (it is an operator-facing log, not a candidate journal).
  return default_path(config_, "lease-" + std::to_string(id) + ".nsb");
}

Lease Supervisor::make_lease(std::uint64_t id, store::ShardPlan::Range range,
                             std::size_t attempt, std::uint64_t parent) {
  Lease lease;
  lease.id = id;
  lease.range = range;
  lease.journal_path = lease_journal_path(id);
  lease.status_path = lease.journal_path + ".status.json";
  lease.attempt = attempt;
  lease.parent = parent;
  return lease;
}

void Supervisor::track_journal(const std::string& path) {
  auto& paths = report_.journal_paths;
  if (std::find(paths.begin(), paths.end(), path) == paths.end()) {
    paths.push_back(path);
  }
}

void Supervisor::plan_or_recover() {
  const auto recovered =
      config_.resume ? LeaseLog::recover(report_.event_log_path)
                     : LeaseLog::Recovered{};
  log_.emplace(report_.event_log_path);

  if (!recovered.outstanding.empty() || !recovered.revoked.empty() ||
      !recovered.completed.empty()) {
    // Resume: completed leases keep their journals (merge inputs); every
    // unfinished lease — outstanding when the previous supervisor died, or
    // revoked without a re-grant — goes back on the queue with the SAME
    // journal, so finished candidates replay as cache hits.
    next_lease_id_ = recovered.max_lease_id + 1;
    for (const auto& path : recovered.completed_journals) track_journal(path);
    report_.leases_completed += recovered.completed.size();
    for (const auto& [id, lease] : recovered.outstanding) {
      pending_.push_back(lease);
      track_journal(lease.journal_path);
    }
    for (const auto& [id, lease] : recovered.revoked) {
      Lease regrant = lease;
      regrant.attempt += 1;
      pending_.push_back(regrant);
      track_journal(regrant.journal_path);
    }
    report_.leases_planned = pending_.size();
    log_->note("resume", 0,
               {{"pending", std::to_string(pending_.size())},
                {"completed", std::to_string(recovered.completed.size())}});
    return;
  }

  // Fresh run: carve the full fingerprint space into initial_leases
  // contiguous sub-ranges (store::ShardPlan).
  const store::ShardPlan plan(config_.initial_leases);
  for (std::size_t i = 0; i < plan.num_shards(); ++i) {
    pending_.push_back(make_lease(next_lease_id_++, plan.range(i), 0, 0));
  }
  report_.leases_planned = pending_.size();
}

void Supervisor::spawn_pending() {
  while (!pending_.empty() && slots_.size() < config_.num_workers) {
    Lease lease = pending_.front();
    pending_.pop_front();
    log_->grant(lease);
    track_journal(lease.journal_path);
    const std::vector<std::string> argv = command_(lease);
    Slot slot;
    slot.lease = std::move(lease);
    slot.process = ChildProcess::spawn(argv);
    slot.spawn_unix = obs::unix_now();
    log_->note("spawn", slot.lease.id,
               {{"pid", std::to_string(slot.process.pid())},
                {"attempt", std::to_string(slot.lease.attempt)}});
    slots_.push_back(std::move(slot));
    ++report_.spawned;
  }
}

bool Supervisor::handle_exit(Slot& slot, const ExitStatus& status) {
  if (status.ok()) {
    log_->complete(slot.lease.id);
    ++report_.leases_completed;
    return true;
  }
  log_->revoke(slot.lease.id, "crash: " + status.describe());
  if (status.kind == ExitStatus::Kind::kExited &&
      status.exit_code == kFailFastExitCode) {
    // The worker says its arguments are wrong. Restarting would reproduce
    // the same failure max_restarts times and then fail anyway — abort now
    // with the root cause front and center.
    log_->note("abort", slot.lease.id, {{"reason", status.describe()}});
    fail("worker for lease " + std::to_string(slot.lease.id) +
         " failed fast (" + status.describe() +
         "): bad worker arguments, not restarting");
    return false;
  }
  if (slot.lease.attempt >= config_.max_restarts) {
    log_->note("abort", slot.lease.id,
               {{"reason", "max restarts exceeded (" + status.describe() +
                               ")"}});
    fail("lease " + std::to_string(slot.lease.id) + " failed " +
         std::to_string(slot.lease.attempt + 1) + " times (last: " +
         status.describe() + "), max_restarts=" +
         std::to_string(config_.max_restarts) + " exhausted");
    return false;
  }
  // Crash restart: same lease id, same range, SAME journal. Whatever the
  // dead attempt journaled (minus a torn tail) replays as cache hits; only
  // the remainder of the range executes.
  Lease retry = slot.lease;
  retry.attempt += 1;
  log_->note("restart", retry.id,
             {{"attempt", std::to_string(retry.attempt)},
              {"cause", status.describe()}});
  pending_.push_back(std::move(retry));
  ++report_.crash_restarts;
  return true;
}

void Supervisor::check_staleness() {
  if (config_.heartbeat_timeout_seconds <= 0.0) return;
  const double now = obs::unix_now();
  for (std::size_t i = 0; i < slots_.size();) {
    Slot& slot = slots_[i];
    const auto snapshot = obs::read_status(slot.lease.status_path);
    // Judge from max(spawn, heartbeat): a snapshot left behind by a dead
    // previous attempt must not condemn a worker that just started, and a
    // worker that never writes its first snapshot is judged from spawn.
    double reference = slot.spawn_unix;
    if (snapshot.has_value()) {
      reference = std::max(reference, snapshot->heartbeat_unix);
      if (snapshot->done()) {  // finished, just hasn't exited yet
        ++i;
        continue;
      }
    }
    if (now - reference <= config_.heartbeat_timeout_seconds) {
      ++i;
      continue;
    }

    // Straggler: kill it, then split its range at the fingerprint midpoint
    // so two workers share the remainder. The partial journal stays on the
    // merge list — only genuinely-unfinished candidates re-execute.
    slot.process.terminate(SIGKILL);
    (void)slot.process.wait();
    log_->note("stale_kill", slot.lease.id,
               {{"age_seconds", std::to_string(now - reference)}});
    log_->revoke(slot.lease.id, "stale");
    ++report_.stale_kills;

    const Lease dead = slot.lease;
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));

    if (dead.attempt >= config_.max_restarts) {
      log_->note("abort", dead.id, {{"reason", "max restarts exceeded "
                                               "(stale)"}});
      fail("lease " + std::to_string(dead.id) +
           " stalled past max_restarts=" +
           std::to_string(config_.max_restarts));
      return;
    }
    if (dead.range.splittable()) {
      const auto [left, right] = store::split_midpoint(dead.range);
      Lease a = make_lease(next_lease_id_++, left, dead.attempt + 1, dead.id);
      Lease b = make_lease(next_lease_id_++, right, dead.attempt + 1, dead.id);
      log_->split(dead.id, a, b);
      log_->note("reassign", a.id, {{"parent", std::to_string(dead.id)}});
      log_->note("reassign", b.id, {{"parent", std::to_string(dead.id)}});
      pending_.push_back(std::move(a));
      pending_.push_back(std::move(b));
      ++report_.splits;
    } else {
      // Single-hi-value range: nothing to split, requeue as-is.
      Lease retry = dead;
      retry.attempt += 1;
      log_->note("restart", retry.id,
                 {{"attempt", std::to_string(retry.attempt)},
                  {"cause", "stale"}});
      pending_.push_back(std::move(retry));
      ++report_.crash_restarts;
    }
  }
}

void Supervisor::wait_for_exit() const {
  std::vector<pollfd> fds;
  fds.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    if (slot.process.pidfd() >= 0) {
      fds.push_back(pollfd{slot.process.pidfd(), POLLIN, 0});
    }
  }
  // poll(2) takes int milliseconds: round up, so that a sub-millisecond
  // interval still sleeps, and clamp a huge one.
  const double ms = std::ceil(config_.poll_interval_seconds * 1000.0);
  const int timeout_ms = static_cast<int>(
      std::min(ms, static_cast<double>(std::numeric_limits<int>::max())));
  // An interrupted or failed wait only ends the round early.
  (void)::poll(fds.data(), fds.size(), timeout_ms);
}

void Supervisor::fail(const std::string& error) {
  failed_ = true;
  report_.error = error;
  // Kill and reap everything still running; leave pending_ as a record of
  // unfinished work (it also survives in the lease log for resume).
  for (auto& slot : slots_) {
    slot.process.terminate(SIGKILL);
    (void)slot.process.wait();
    log_->revoke(slot.lease.id, "supervisor abort");
  }
  slots_.clear();
}

util::JsonValue Supervisor::cluster_status() const {
  std::vector<std::optional<obs::StatusSnapshot>> snapshots;
  snapshots.reserve(slots_.size());
  for (const auto& slot : slots_) {
    snapshots.push_back(obs::read_status(slot.lease.status_path));
  }
  util::JsonValue doc = obs::aggregate_status(
      snapshots, obs::unix_now(), config_.heartbeat_timeout_seconds);

  util::JsonValue sup = util::JsonValue::object();
  sup.set("pending_leases",
          util::JsonValue::number(static_cast<double>(pending_.size())));
  sup.set("running_workers",
          util::JsonValue::number(static_cast<double>(slots_.size())));
  sup.set("leases_completed", util::JsonValue::number(static_cast<double>(
                                  report_.leases_completed)));
  sup.set("crash_restarts", util::JsonValue::number(static_cast<double>(
                                report_.crash_restarts)));
  sup.set("stale_kills",
          util::JsonValue::number(static_cast<double>(report_.stale_kills)));
  sup.set("splits",
          util::JsonValue::number(static_cast<double>(report_.splits)));
  util::JsonValue leases = util::JsonValue::array();
  for (const auto& slot : slots_) {
    util::JsonValue entry = util::JsonValue::object();
    entry.set("lease",
              util::JsonValue::number(static_cast<double>(slot.lease.id)));
    entry.set("attempt", util::JsonValue::number(
                             static_cast<double>(slot.lease.attempt)));
    entry.set("lo", util::JsonValue::string(hex_u64(slot.lease.range.lo)));
    entry.set("hi", util::JsonValue::string(hex_u64(slot.lease.range.hi)));
    entry.set("pid", util::JsonValue::number(
                         static_cast<double>(slot.process.pid())));
    leases.push_back(std::move(entry));
  }
  sup.set("leases", std::move(leases));
  doc.set("supervisor", std::move(sup));
  return doc;
}

void Supervisor::write_cluster_status() {
  const double now = obs::unix_now();
  if (now - last_status_write_ < config_.cluster_status_interval_seconds) {
    return;
  }
  last_status_write_ = now;
  util::write_file_atomic(report_.cluster_status_path,
                          cluster_status().dump() + "\n");
}

SupervisorReport Supervisor::run() {
  if (started_) {
    throw std::logic_error("Supervisor::run: single-shot, already ran");
  }
  started_ = true;
  util::ensure_directories(config_.dir);
  plan_or_recover();

  while (!failed_ && (!pending_.empty() || !slots_.empty())) {
    spawn_pending();
    // Reap in reverse so erase() never shifts an unvisited slot.
    for (std::size_t i = slots_.size(); i-- > 0 && !failed_;) {
      const ExitStatus status = slots_[i].process.poll();
      if (status.running()) continue;
      if (!handle_exit(slots_[i], status)) break;  // fail() cleared slots_
      slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (failed_) break;
    check_staleness();
    write_cluster_status();
    if (pending_.empty() && slots_.empty()) break;
    // A slot freed this round (a worker exited or a straggler was killed)
    // while leases wait: refill it now.
    if (!pending_.empty() && slots_.size() < config_.num_workers) continue;
    wait_for_exit();
  }

  report_.success = !failed_;
  // Final status snapshot regardless of the rate limit.
  last_status_write_ = 0.0;
  write_cluster_status();
  if (report_.success) {
    log_->note("done", 0,
               {{"leases_completed",
                 std::to_string(report_.leases_completed)},
                {"spawned", std::to_string(report_.spawned)}});
  }
  return report_;
}

}  // namespace nada::svc
