// The elastic search supervisor's contracts (src/svc/, docs/SERVICE.md):
//
//   * split_range / split_midpoint: the two halves partition the parent
//     exactly — no gap, no overlap, degenerate ranges handled, and the
//     union of the fingerprints they contain reproduces the parent's set
//     bit-for-bit,
//   * LeaseLog: grant/complete/revoke/split replay into the correct
//     durable state, torn tails and out-of-range numbers are skipped on
//     read (torn tails also neutralized on append), hex range bounds
//     round-trip at full 64-bit precision,
//   * Supervisor (scripted /bin/sh workers): drains the queue, re-grants a
//     crashed lease with the same journal, fails fast on the usage exit
//     code, gives up after max_restarts, kills + splits + reassigns a
//     stale straggler (and a resume after that re-runs nothing), and
//     resumes unfinished leases from a prior log,
//   * shard_worker exit codes: 0 ok / 1 runtime / 2 usage (malformed
//     numbers included) / 42 injected crash — pinned, because the
//     supervisor's restart policy branches on them,
//   * THE invariant: a supervised run of the real shard_worker binary with
//     two injected mid-append crashes and one stale straggler (killed,
//     split, reassigned) produces byte-identical rankings and journal
//     record sets to an uninterrupted single-process run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "search/search_job.h"
#include "search/shard_runner.h"
#include "store/candidate_store.h"
#include "store/fingerprint.h"
#include "store/record_codec.h"
#include "store/shard.h"
#include "svc/lease_log.h"
#include "svc/process.h"
#include "svc/supervisor.h"
#include "tools/cli_common.h"
#include "util/fs.h"
#include "util/json.h"

#include "journal_lines.h"

namespace nada::svc {
namespace {

std::string fresh_dir(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "nada_svc_" + tag;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  util::ensure_directories(path);
  return path;
}

// ---- sub-range splitting ----------------------------------------------------

TEST(SplitRange, PartitionsParentExactly) {
  const store::ShardPlan::Range parent{100, 200};
  const auto [left, right] = store::split_range(parent, 150);
  EXPECT_EQ(left.lo, 100u);
  EXPECT_EQ(left.hi, 149u);
  EXPECT_EQ(right.lo, 150u);
  EXPECT_EQ(right.hi, 200u);
  // No gap, no overlap, widths add up.
  EXPECT_EQ(left.hi + 1, right.lo);
  EXPECT_EQ(left.width() + right.width(), parent.width());

  // Boundary at hi: the right half degenerates to a single hi value.
  const auto [body, last] = store::split_range(parent, 200);
  EXPECT_EQ(body.hi, 199u);
  EXPECT_EQ(last.lo, 200u);
  EXPECT_EQ(last.hi, 200u);
  EXPECT_FALSE(last.splittable());
  EXPECT_EQ(last.width(), 1u);

  // A two-value range splits into two degenerate singles.
  const auto [a, b] = store::split_midpoint({7, 8});
  EXPECT_EQ(a, (store::ShardPlan::Range{7, 7}));
  EXPECT_EQ(b, (store::ShardPlan::Range{8, 8}));
  EXPECT_FALSE(a.splittable());
  EXPECT_FALSE(b.splittable());
}

TEST(SplitRange, RejectsDegenerateBoundaries) {
  const store::ShardPlan::Range parent{100, 200};
  // boundary == lo would make the left half empty.
  EXPECT_THROW((void)store::split_range(parent, 100), std::invalid_argument);
  EXPECT_THROW((void)store::split_range(parent, 99), std::invalid_argument);
  EXPECT_THROW((void)store::split_range(parent, 201), std::invalid_argument);
  // A single-value range is not splittable at all.
  EXPECT_FALSE((store::ShardPlan::Range{5, 5}).splittable());
  EXPECT_THROW((void)store::split_midpoint({5, 5}), std::invalid_argument);
}

TEST(SplitRange, ExtremesOfTheFullSpace) {
  // The full 64-bit space (width() wraps to 0 by design) still splits
  // cleanly at the midpoint, and recursive splits stay exact.
  const store::ShardPlan::Range full{0, ~std::uint64_t{0}};
  const auto [lo_half, hi_half] = store::split_midpoint(full);
  EXPECT_EQ(lo_half.lo, 0u);
  EXPECT_EQ(lo_half.hi + 1, hi_half.lo);
  EXPECT_EQ(hi_half.hi, ~std::uint64_t{0});
  const auto [q1, q2] = store::split_midpoint(lo_half);
  const auto [q3, q4] = store::split_midpoint(hi_half);
  EXPECT_EQ(q1.hi + 1, q2.lo);
  EXPECT_EQ(q2.hi + 1, q3.lo);
  EXPECT_EQ(q3.hi + 1, q4.lo);
}

TEST(SplitRange, UnionReproducesParentMembershipBitForBit) {
  // Real content fingerprints, not synthetic hi values: membership after a
  // split must agree with the parent for every candidate — exactly one
  // half claims each in-parent fingerprint, neither claims an outsider.
  std::vector<store::Fingerprint> fps;
  fps.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    fps.push_back(store::fingerprint_text("candidate-" + std::to_string(i)));
  }
  const store::ShardPlan plan(3);
  for (std::size_t shard = 0; shard < plan.num_shards(); ++shard) {
    const auto parent = plan.range(shard);
    const auto [left, right] = store::split_midpoint(parent);
    std::size_t in_parent = 0;
    for (const auto& fp : fps) {
      const bool in_left = left.contains(fp);
      const bool in_right = right.contains(fp);
      EXPECT_FALSE(in_left && in_right);
      EXPECT_EQ(parent.contains(fp), in_left || in_right);
      if (parent.contains(fp)) ++in_parent;
      // Membership agrees with the plan's own assignment.
      EXPECT_EQ(parent.contains(fp), plan.shard_of(fp) == shard);
    }
    EXPECT_GT(in_parent, 0u);  // the sample actually exercises this range
  }
}

// ---- LeaseLog ---------------------------------------------------------------

TEST(LeaseLog, HexRoundTripsFullPrecision) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xdeadbeef},
        std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
    EXPECT_EQ(parse_hex_u64(hex_u64(v)), v);
    EXPECT_EQ(hex_u64(v).size(), 16u);
  }
  EXPECT_EQ(hex_u64(~std::uint64_t{0}), "ffffffffffffffff");
  EXPECT_THROW((void)parse_hex_u64(""), std::runtime_error);
  EXPECT_THROW((void)parse_hex_u64("xyz"), std::runtime_error);
  EXPECT_THROW((void)parse_hex_u64("10000000000000000"), std::runtime_error);
}

Lease test_lease(std::uint64_t id, std::uint64_t lo, std::uint64_t hi,
                 const std::string& dir, std::size_t attempt = 0,
                 std::uint64_t parent = 0) {
  Lease lease;
  lease.id = id;
  lease.range = {lo, hi};
  lease.journal_path = dir + "/lease-" + std::to_string(id) + ".nsb";
  lease.status_path = lease.journal_path + ".status.json";
  lease.attempt = attempt;
  lease.parent = parent;
  return lease;
}

TEST(LeaseLog, RecoverReplaysDurableState) {
  const std::string dir = fresh_dir("leaselog");
  const std::string path = dir + "/log.jsonl";
  {
    LeaseLog log(path);
    log.grant(test_lease(1, 0, 99, dir));
    log.grant(test_lease(2, 100, 199, dir));
    log.grant(test_lease(3, 200, 299, dir));
    log.complete(1);
    log.revoke(2, "crash: exit 1");
    log.note("restart", 2, {{"attempt", "1"}});
    log.grant(test_lease(2, 100, 199, dir, /*attempt=*/1));
    log.revoke(3, "stale");
  }
  const auto state = LeaseLog::recover(path);
  EXPECT_EQ(state.skipped_lines, 0u);
  EXPECT_EQ(state.max_lease_id, 3u);
  EXPECT_EQ(state.completed, (std::set<std::uint64_t>{1}));
  ASSERT_EQ(state.completed_journals.size(), 1u);
  EXPECT_EQ(state.completed_journals[0], dir + "/lease-1.nsb");
  // Lease 2 was re-granted after its revoke: outstanding, at attempt 1.
  ASSERT_EQ(state.outstanding.size(), 1u);
  EXPECT_EQ(state.outstanding.at(2).attempt, 1u);
  EXPECT_EQ(state.outstanding.at(2).range, (store::ShardPlan::Range{100, 199}));
  // Lease 3's revoke was the last word: revoked, needing a re-grant.
  ASSERT_EQ(state.revoked.size(), 1u);
  EXPECT_EQ(state.revoked.at(3).range, (store::ShardPlan::Range{200, 299}));
}

TEST(LeaseLog, TornTailIsSkippedOnReadAndNeutralizedOnAppend) {
  const std::string dir = fresh_dir("leaselog_torn");
  const std::string path = dir + "/log.jsonl";
  {
    LeaseLog log(path);
    log.grant(test_lease(1, 0, 99, dir));
  }
  {
    // A supervisor killed mid-append: half a record, no newline.
    std::ofstream torn(path, std::ios::app);
    torn << R"({"event":"complete","lease)";
  }
  const auto state = LeaseLog::recover(path);
  EXPECT_EQ(state.skipped_lines, 1u);
  EXPECT_EQ(state.outstanding.size(), 1u);  // the torn complete never landed
  {
    // Reopening newline-terminates the fragment; the next event must land
    // on its own line and be recovered.
    LeaseLog log(path);
    log.complete(1);
  }
  const auto after = LeaseLog::recover(path);
  EXPECT_EQ(after.skipped_lines, 1u);
  EXPECT_TRUE(after.outstanding.empty());
  EXPECT_EQ(after.completed, (std::set<std::uint64_t>{1}));
}

TEST(LeaseLog, SplitResolvesTheParentIntoItsChildren) {
  const std::string dir = fresh_dir("leaselog_split");
  const std::string path = dir + "/log.jsonl";
  {
    LeaseLog log(path);
    log.grant(test_lease(1, 0, 199, dir));
    log.revoke(1, "stale");
    log.split(1, test_lease(2, 0, 99, dir, 1, 1),
              test_lease(3, 100, 199, dir, 1, 1));
    log.grant(test_lease(2, 0, 99, dir, 1, 1));
    log.complete(2);
  }
  const auto state = LeaseLog::recover(path);
  EXPECT_EQ(state.skipped_lines, 0u);
  EXPECT_EQ(state.max_lease_id, 3u);
  // The parent is resolved by the split; the child that was never granted
  // is still owed a run.
  EXPECT_TRUE(state.revoked.empty());
  EXPECT_EQ(state.completed, (std::set<std::uint64_t>{2}));
  ASSERT_EQ(state.outstanding.size(), 1u);
  const Lease& child = state.outstanding.at(3);
  EXPECT_EQ(child.range, (store::ShardPlan::Range{100, 199}));
  EXPECT_EQ(child.attempt, 1u);
  EXPECT_EQ(child.parent, 1u);
  EXPECT_EQ(child.journal_path, dir + "/lease-3.nsb");
}

TEST(LeaseLog, OutOfRangeNumbersAreSkippedNotCast) {
  const std::string dir = fresh_dir("leaselog_hostile");
  const std::string path = dir + "/log.jsonl";
  {
    LeaseLog log(path);
    log.grant(test_lease(7, 0, 99, dir));
  }
  {
    // Well-formed JSON whose numbers no lease id or attempt can hold.
    std::ofstream out(path, std::ios::app);
    out << R"({"event":"grant","lease":1e300,"lo":"00","hi":"ff",)"
        << R"("journal":"j","status":"s","attempt":0,"parent":0})" << "\n"
        << R"({"event":"grant","lease":2,"lo":"00","hi":"ff",)"
        << R"("journal":"j","status":"s","attempt":-1,"parent":0})" << "\n"
        << R"({"event":"complete","lease":-5})" << "\n";
  }
  const auto state = LeaseLog::recover(path);
  EXPECT_EQ(state.skipped_lines, 3u);
  EXPECT_EQ(state.max_lease_id, 7u);
  ASSERT_EQ(state.outstanding.size(), 1u);
  EXPECT_TRUE(state.outstanding.contains(7));
  EXPECT_TRUE(state.completed.empty());
  EXPECT_TRUE(state.revoked.empty());
}

// ---- Supervisor with scripted workers ---------------------------------------

/// Command builder running an inline /bin/sh script (fast, no search).
CommandBuilder sh_command(const std::string& script) {
  return [script](const Lease&) {
    return std::vector<std::string>{"/bin/sh", "-c", script};
  };
}

SupervisorConfig fast_config(const std::string& dir) {
  SupervisorConfig config;
  config.dir = dir;
  config.prefix = "t-";
  config.poll_interval_seconds = 0.01;
  config.heartbeat_timeout_seconds = 0.0;  // staleness off unless a test opts in
  config.cluster_status_interval_seconds = 0.05;
  return config;
}

TEST(Supervisor, DrainsTheQueueAndLogsEveryLease) {
  const std::string dir = fresh_dir("sup_happy");
  SupervisorConfig config = fast_config(dir);
  config.num_workers = 2;
  config.initial_leases = 4;
  Supervisor supervisor(config, sh_command("exit 0"));
  const auto report = supervisor.run();
  EXPECT_TRUE(report.success) << report.error;
  EXPECT_EQ(report.leases_planned, 4u);
  EXPECT_EQ(report.leases_completed, 4u);
  EXPECT_EQ(report.spawned, 4u);
  EXPECT_EQ(report.crash_restarts, 0u);
  EXPECT_EQ(report.stale_kills, 0u);
  EXPECT_EQ(report.journal_paths.size(), 4u);

  // The lease log carries the full history and the planned ranges tile the
  // fingerprint space in lease order.
  const auto state = LeaseLog::recover(report.event_log_path);
  EXPECT_EQ(state.completed.size(), 4u);
  EXPECT_TRUE(state.outstanding.empty());
  std::uint64_t next_lo = 0;
  const auto events = LeaseLog::read_events(report.event_log_path);
  for (const auto& event : events) {
    if (event.get("event").as_string() != "grant") continue;
    EXPECT_EQ(parse_hex_u64(event.get("lo").as_string()), next_lo);
    next_lo = parse_hex_u64(event.get("hi").as_string()) + 1;
  }
  EXPECT_EQ(next_lo, 0u);  // last hi was 2^64 - 1, +1 wrapped

  // Final cluster status reflects the drained queue.
  const auto status =
      util::JsonValue::parse(util::read_file(report.cluster_status_path));
  EXPECT_EQ(status.get("supervisor").get("pending_leases").as_number(), 0.0);
  EXPECT_EQ(status.get("supervisor").get("leases_completed").as_number(), 4.0);
}

TEST(Supervisor, CrashedLeaseIsRegrantedWithTheSameJournal) {
  const std::string dir = fresh_dir("sup_crash");
  SupervisorConfig config = fast_config(dir);
  config.num_workers = 2;
  config.initial_leases = 2;
  config.max_restarts = 3;
  // Every worker crashes once: first attempt plants a marker and dies with
  // a restartable code; the retry sees the marker and succeeds.
  Supervisor supervisor(
      config, [&dir](const Lease& lease) {
        const std::string marker =
            dir + "/crashed-" + std::to_string(lease.id);
        return std::vector<std::string>{
            "/bin/sh", "-c",
            "if [ -f " + marker + " ]; then exit 0; else touch " + marker +
                "; exit 1; fi"};
      });
  const auto report = supervisor.run();
  EXPECT_TRUE(report.success) << report.error;
  EXPECT_EQ(report.leases_completed, 2u);
  EXPECT_EQ(report.crash_restarts, 2u);
  EXPECT_EQ(report.spawned, 4u);  // 2 first attempts + 2 retries
  // Restart reuses the journal: no new paths appear.
  EXPECT_EQ(report.journal_paths.size(), 2u);
  // The log shows revoke -> restart -> grant(attempt 1) per lease.
  std::size_t restarts = 0;
  for (const auto& event : LeaseLog::read_events(report.event_log_path)) {
    if (event.get("event").as_string() == "restart") ++restarts;
  }
  EXPECT_EQ(restarts, 2u);
}

TEST(Supervisor, FailsFastOnTheUsageExitCode) {
  const std::string dir = fresh_dir("sup_failfast");
  SupervisorConfig config = fast_config(dir);
  config.num_workers = 1;
  config.initial_leases = 2;
  config.max_restarts = 5;
  Supervisor supervisor(config, sh_command("exit 2"));
  const auto report = supervisor.run();
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.error.find("failed fast"), std::string::npos);
  // No restart was burned on a config bug.
  EXPECT_EQ(report.crash_restarts, 0u);
  EXPECT_EQ(report.spawned, 1u);
}

TEST(Supervisor, GivesUpAfterMaxRestarts) {
  const std::string dir = fresh_dir("sup_maxrestarts");
  SupervisorConfig config = fast_config(dir);
  config.num_workers = 1;
  config.initial_leases = 1;
  config.max_restarts = 2;
  Supervisor supervisor(config, sh_command("exit 1"));
  const auto report = supervisor.run();
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.error.find("max_restarts"), std::string::npos);
  EXPECT_EQ(report.spawned, 3u);  // initial + 2 allowed restarts
  EXPECT_EQ(report.crash_restarts, 2u);
}

TEST(Supervisor, StaleStragglerIsKilledSplitAndReassigned) {
  const std::string dir = fresh_dir("sup_stale");
  SupervisorConfig config = fast_config(dir);
  config.num_workers = 2;
  config.initial_leases = 1;
  config.heartbeat_timeout_seconds = 0.3;
  // The planned lease never heartbeats (no status file, judged from spawn
  // time) and never finishes; the split children exit immediately.
  Supervisor supervisor(config, [](const Lease& lease) {
    return std::vector<std::string>{
        "/bin/sh", "-c", lease.parent == 0 ? "exec sleep 60" : "exit 0"};
  });
  const auto report = supervisor.run();
  EXPECT_TRUE(report.success) << report.error;
  EXPECT_EQ(report.stale_kills, 1u);
  EXPECT_EQ(report.splits, 1u);
  EXPECT_EQ(report.leases_completed, 2u);  // the two children
  EXPECT_EQ(report.journal_paths.size(), 3u);  // parent partial + children

  // The children exactly partition the parent's range.
  const auto state = LeaseLog::recover(report.event_log_path);
  EXPECT_EQ(state.completed.size(), 2u);
  std::size_t reassigns = 0;
  store::ShardPlan::Range parent_range{1, 0}, left{1, 0}, right{1, 0};
  for (const auto& event : LeaseLog::read_events(report.event_log_path)) {
    const std::string kind = event.get("event").as_string();
    if (kind == "reassign") ++reassigns;
    if (kind != "grant") continue;
    const store::ShardPlan::Range range{
        parse_hex_u64(event.get("lo").as_string()),
        parse_hex_u64(event.get("hi").as_string())};
    if (event.get("parent").as_number() == 0.0) parent_range = range;
    else if (left.lo > left.hi) left = range;
    else right = range;
  }
  EXPECT_EQ(reassigns, 2u);
  EXPECT_EQ(left.lo, parent_range.lo);
  EXPECT_EQ(left.hi + 1, right.lo);
  EXPECT_EQ(right.hi, parent_range.hi);

  // Resume on the finished directory: the split resolved the parent into
  // its two completed children, so nothing is left to grant — re-granting
  // lease 1 would re-run the whole fingerprint space.
  std::vector<std::uint64_t> regranted;
  Supervisor resumed(config, [&regranted](const Lease& lease) {
    regranted.push_back(lease.id);
    return std::vector<std::string>{"/bin/sh", "-c", "exit 0"};
  });
  const auto resumed_report = resumed.run();
  EXPECT_TRUE(resumed_report.success) << resumed_report.error;
  EXPECT_TRUE(regranted.empty());
  EXPECT_EQ(resumed_report.spawned, 0u);
}

TEST(Supervisor, ResumeRegrantsUnfinishedLeasesFromAPriorLog) {
  const std::string dir = fresh_dir("sup_resume");
  SupervisorConfig config = fast_config(dir);
  config.num_workers = 2;
  // A previous supervisor's log: lease 1 finished, lease 2 was running
  // when it died, lease 3 was revoked and never re-granted.
  {
    LeaseLog log(dir + "/" + config.prefix + "supervisor.jsonl");
    log.grant(test_lease(1, 0, 99, dir));
    log.grant(test_lease(2, 100, 199, dir));
    log.grant(test_lease(3, 200, 299, dir));
    log.complete(1);
    log.revoke(3, "crash: exit 1");
  }
  std::vector<std::uint64_t> granted;
  Supervisor supervisor(config, [&granted](const Lease& lease) {
    granted.push_back(lease.id);
    return std::vector<std::string>{"/bin/sh", "-c", "exit 0"};
  });
  const auto report = supervisor.run();
  EXPECT_TRUE(report.success) << report.error;
  // Only the unfinished leases ran, and the completed one kept its journal
  // on the merge list.
  std::sort(granted.begin(), granted.end());
  EXPECT_EQ(granted, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(report.leases_planned, 2u);
  EXPECT_EQ(report.leases_completed, 3u);  // 1 recovered + 2 run now
  EXPECT_EQ(report.journal_paths.size(), 3u);
  const auto state = LeaseLog::recover(report.event_log_path);
  EXPECT_EQ(state.completed, (std::set<std::uint64_t>{1, 2, 3}));
}

// ---- shard_worker exit codes ------------------------------------------------

int run_to_exit(const std::vector<std::string>& argv) {
  ChildProcess child = ChildProcess::spawn(argv);
  const ExitStatus status = child.wait();
  EXPECT_EQ(status.kind, ExitStatus::Kind::kExited) << status.describe();
  return status.exit_code;
}

TEST(WorkerExitCodes, UsageRuntimeAndInjectedCrashAreDistinct) {
  const std::string bin = NADA_SHARD_WORKER_BIN;
  const std::string dir = fresh_dir("exit_codes");
  // Usage errors — the supervisor's fail-fast trigger.
  EXPECT_EQ(run_to_exit({bin, "--mode", "bogus"}), 2);
  EXPECT_EQ(run_to_exit({bin, "--no-such-flag"}), 2);
  EXPECT_EQ(run_to_exit({bin, "--mode", "worker", "--journal", dir + "/j"}),
            2);  // worker mode without its range
  EXPECT_EQ(run_to_exit({bin, "--mode", "worker", "--journal", dir + "/j",
                         "--range-lo", "zz", "--range-hi", "ff"}),
            2);  // malformed hex
  // Malformed numbers: non-digits, trailing characters, a sign.
  const std::vector<std::pair<std::string, std::string>> bad_numbers = {
      {"--candidates", "abc"}, {"--seed", "12x"}, {"--candidates", "-1"}};
  for (const auto& [flag, text] : bad_numbers) {
    EXPECT_EQ(run_to_exit({bin, "--mode", "single", "--quiet", "--store-dir",
                           dir + "/numbers", flag, text}),
              2)
        << flag << " " << text;
  }
  // Runtime failure: an unwritable store directory.
  EXPECT_EQ(run_to_exit({bin, "--mode", "single", "--quiet", "--candidates",
                         "4", "--store-dir", "/dev/null/nope"}),
            1);
  // Injected crash: the test-only fault flag's hard _exit mid-append.
  EXPECT_EQ(run_to_exit({bin, "--mode", "worker", "--quiet",
                         "--candidates", "6",
                         "--store-dir", dir,
                         "--journal", dir + "/crash.nsb",
                         "--range-lo", "0000000000000000",
                         "--range-hi", "ffffffffffffffff",
                         "--crash-after-candidates", "1"}),
            42);
  // The crash really tore the journal: its last frame is incomplete.
  const std::string journal = util::read_file(dir + "/crash.nsb");
  ASSERT_TRUE(journal.starts_with(store::kBinaryJournalMagic));
  EXPECT_TRUE(store::scan_binary_journal(
                  std::string_view(journal).substr(
                      store::kBinaryJournalMagic.size()),
                  nullptr)
                  .torn_tail);
}

// ---- THE invariant: kill-and-restart equivalence ----------------------------

using TrainedRow =
    std::tuple<std::size_t, std::string, double, std::vector<double>>;
std::vector<TrainedRow> trained_rows(const search::SearchResult& result) {
  std::vector<TrainedRow> rows;
  for (const auto& outcome : result.outcomes) {
    if (!outcome.fully_trained) continue;
    rows.emplace_back(outcome.stream_index, outcome.id, outcome.test_score,
                      outcome.early_rewards);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// A supervised run of the REAL shard_worker binary with two injected
/// crashes (hard _exit mid-journal-append on the first two leases) and one
/// stale straggler (stops progressing and heartbeating, gets killed, its
/// range split and reassigned) must produce byte-identical rankings and
/// journal record sets to the same search run uninterrupted in one
/// process. This is the subsystem's reason to exist; everything above it
/// is scaffolding for this test.
TEST(SupervisedEquivalence, KillAndRestartMatchesUninterruptedRun) {
  constexpr std::size_t kCandidates = 24;
  const auto setup = tools::make_search_setup("abr", "state", kCandidates,
                                              /*gen_seed=*/77, /*window=*/0);

  // --- uninterrupted single-process run ---------------------------------
  const std::string single_dir = fresh_dir("equiv_single");
  search::ShardRunnerConfig single_shards;
  single_shards.store_dir = single_dir;
  single_shards.worker_status = false;
  search::ShardRunner single_runner(*setup->domain, setup->config, 1234,
                                    single_shards);
  store::CandidateStore single_store(single_dir + "/single.nsb",
                                     single_runner.scope());
  search::JobOptions options;
  options.store = &single_store;
  search::SearchJob job(*setup->domain, setup->config, 1234, *setup->source,
                        setup->fixed, options);
  const auto uninterrupted = job.run_to_completion();

  // --- supervised run with the full fault schedule ----------------------
  const std::string svc_dir = fresh_dir("equiv_svc");
  search::ShardRunnerConfig svc_shards;
  svc_shards.store_dir = svc_dir;
  search::ShardRunner svc_runner(*setup->domain, setup->config, 1234,
                                 svc_shards);
  SupervisorConfig config;
  config.num_workers = 2;
  config.initial_leases = 3;
  config.max_restarts = 3;
  config.heartbeat_timeout_seconds = 2.0;
  config.poll_interval_seconds = 0.05;
  config.dir = svc_dir;
  config.prefix = svc_runner.service_prefix();
  const auto command = [&svc_dir](const Lease& lease) {
    std::vector<std::string> argv{
        NADA_SHARD_WORKER_BIN, "--mode", "worker", "--quiet",
        "--journal", lease.journal_path,
        "--range-lo", hex_u64(lease.range.lo),
        "--range-hi", hex_u64(lease.range.hi),
        "--store-dir", svc_dir,
        "--candidates", std::to_string(kCandidates)};
    if (lease.attempt == 0 && lease.parent == 0) {
      // Leases 1 and 2 crash mid-append; lease 3 goes silent and straggles.
      if (lease.id <= 2) {
        argv.insert(argv.end(), {"--crash-after-candidates",
                                 std::to_string(lease.id)});
      } else if (lease.id == 3) {
        argv.insert(argv.end(), {"--stall-after-candidates", "2"});
      }
    }
    return argv;
  };
  Supervisor supervisor(config, command);
  const auto report = supervisor.run();
  ASSERT_TRUE(report.success) << report.error;
  // The fault schedule actually happened: two crash restarts, one stale
  // straggler killed, its range split and reassigned.
  EXPECT_GE(report.crash_restarts, 2u);
  EXPECT_GE(report.stale_kills, 1u);
  EXPECT_GE(report.splits, 1u);
  std::size_t restarts = 0, reassigns = 0;
  for (const auto& event : LeaseLog::read_events(report.event_log_path)) {
    const std::string kind = event.get("event").as_string();
    if (kind == "restart") ++restarts;
    if (kind == "reassign") ++reassigns;
  }
  EXPECT_GE(restarts, 2u);
  EXPECT_GE(reassigns, 2u);

  // Driver pass over every journal any lease ever owned (the straggler's
  // partial included).
  const auto supervised = svc_runner.merge_and_rank_paths(
      report.journal_paths, *setup->source, setup->fixed);

  // Byte-identical results: rankings and the journal record set.
  EXPECT_EQ(supervised.n_total, uninterrupted.n_total);
  EXPECT_EQ(supervised.n_fully_trained, uninterrupted.n_fully_trained);
  EXPECT_DOUBLE_EQ(supervised.original_score, uninterrupted.original_score);
  EXPECT_EQ(trained_rows(supervised), trained_rows(uninterrupted));
  const auto supervised_journal =
      test::sorted_journal_lines(svc_runner.merged_store_path());
  EXPECT_EQ(supervised_journal,
            test::sorted_journal_lines(single_store.path()));
  EXPECT_FALSE(supervised_journal.empty());
}

}  // namespace
}  // namespace nada::svc
