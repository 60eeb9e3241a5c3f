// search_service: the multi-worker search CLI (svc::Supervisor).
//
// Runs one search across worker processes in one command:
//
//   search_service --workers 3 --store-dir /tmp/svc
//
// The supervisor carves the fingerprint space into leasable sub-ranges,
// spawns shard_worker processes in worker mode (fork/exec; --worker-bin
// locates the binary, default "shard_worker" on PATH), watches their
// heartbeat files, restarts workers that die, kills and splits stragglers
// whose heartbeat goes stale, logs every decision to a crash-tolerant
// lease log, and finally merges every journal and runs the global
// selection + full-training funnel — printing the same
// `RANK,<pos>,<id>,<fingerprint>,<score>` lines as shard_worker, because
// the result is byte-identical to an uninterrupted run by construction
// (docs/SERVICE.md; CI's supervised smoke run diffs exactly that).
//
// A static N-way run — one range per worker, no recovery — is the same
// command with the policies switched off:
//
//   search_service --workers N --leases N --max-restarts 0
//     --heartbeat-timeout 0 --store-dir /tmp/svc
//
// Rerunning on a finished directory resumes from the lease log: nothing is
// left to grant, so no worker spawns and the driver serves the ranking
// from the journals.
//
// Search flags (--domain/--search/--candidates/--seed/--gen-seed/--window)
// match shard_worker and are forwarded to every worker verbatim — the
// search definition must be process-invariant. Supervision flags:
//   --workers N             concurrent worker processes (default 2)
//   --leases N              initial sub-range leases (default: --workers)
//   --max-restarts N        re-grants per lease before giving up (3)
//   --heartbeat-timeout S   staleness threshold, seconds; 0 disables (30)
//   --poll-interval S       supervision loop cadence (0.05)
//   --store-dir DIR         journals, lease log, cluster status (required)
//   --worker-bin PATH       shard_worker binary to exec
//   --fresh                 ignore an existing lease log (default resumes)
//
// Fault injection (TEST ONLY, forwarded to workers on their FIRST attempt
// so the injected fault cannot loop — restarts get a clean command line):
//   --crash-leases K --crash-after N   first K planned leases _exit(42)
//                                      mid-append after N candidates
//   --stall-leases K --stall-after N   next K planned leases go silent
//                                      after N candidates (straggler)
//
// Exit codes follow the shared contract (tools/cli_common.h): 0 ok,
// 1 runtime/supervision failure, 2 bad arguments.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "nn/mat_kernels.h"
#include "search/shard_runner.h"
#include "svc/lease_log.h"
#include "svc/supervisor.h"
#include "tools/cli_common.h"
#include "util/thread_pool.h"

namespace {

using namespace nada;

struct Args {
  std::string domain = "abr";
  std::string search = "state";
  std::string store_dir = "nada_svc";
  std::size_t candidates = 24;
  std::uint64_t seed = 1234;
  std::uint64_t gen_seed = 77;
  std::size_t threads = 0;  // driver's merge/full-train pass only
  std::size_t window = 0;
  std::size_t workers = 2;
  std::size_t leases = 0;
  std::size_t max_restarts = 3;
  double heartbeat_timeout = 30.0;
  double poll_interval = 0.05;
  std::string worker_bin = "shard_worker";
  bool fresh = false;
  bool quiet = false;
  // Test-only fault injection, forwarded to first-attempt workers.
  std::size_t crash_leases = 0;
  std::size_t crash_after = 3;
  std::size_t stall_leases = 0;
  std::size_t stall_after = 3;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "search_service: " << error << "\n"
            << "usage: search_service [--workers N] [--leases N]"
            << " [--max-restarts N] [--heartbeat-timeout S]"
            << " [--poll-interval S] [--store-dir DIR] [--worker-bin PATH]"
            << " [--fresh] [--domain abr|cc] [--search state|arch]"
            << " [--candidates N] [--seed S] [--gen-seed G] [--threads T]"
            << " [--window W] [--quiet]"
            << " [--crash-leases K --crash-after N]"
            << " [--stall-leases K --stall-after N]\n";
  std::exit(tools::kExitUsage);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  auto number = [&](int& i, auto& out) {
    const std::string flag = argv[i];
    tools::parse_number(flag, value(i), out, usage);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--domain") args.domain = value(i);
    else if (flag == "--search") args.search = value(i);
    else if (flag == "--store-dir") args.store_dir = value(i);
    else if (flag == "--candidates") number(i, args.candidates);
    else if (flag == "--seed") number(i, args.seed);
    else if (flag == "--gen-seed") number(i, args.gen_seed);
    else if (flag == "--threads") number(i, args.threads);
    else if (flag == "--window") number(i, args.window);
    else if (flag == "--workers") number(i, args.workers);
    else if (flag == "--leases") number(i, args.leases);
    else if (flag == "--max-restarts") number(i, args.max_restarts);
    else if (flag == "--heartbeat-timeout") number(i, args.heartbeat_timeout);
    else if (flag == "--poll-interval") number(i, args.poll_interval);
    else if (flag == "--worker-bin") args.worker_bin = value(i);
    else if (flag == "--fresh") args.fresh = true;
    else if (flag == "--quiet") args.quiet = true;
    else if (flag == "--crash-leases") number(i, args.crash_leases);
    else if (flag == "--crash-after") number(i, args.crash_after);
    else if (flag == "--stall-leases") number(i, args.stall_leases);
    else if (flag == "--stall-after") number(i, args.stall_after);
    else usage("unknown flag " + flag);
  }
  if (args.domain != "abr" && args.domain != "cc") {
    usage("bad --domain " + args.domain);
  }
  if (args.search != "state" && args.search != "arch") {
    usage("bad --search " + args.search);
  }
  if (args.workers == 0) usage("--workers must be >= 1");
  if (args.poll_interval <= 0.0) usage("--poll-interval must be > 0");
  return args;
}

int run(const Args& args) {
  // Every worker inherits this environment and fails the same way on a bad
  // NADA_NN_KERNEL, which the supervisor would read as restartable crashes.
  // This process trains the baseline and the top-K after supervision, so
  // resolve the kernel table first and fail here, before any worker runs.
  (void)nn::active_kernels();
  const auto setup = tools::make_search_setup(
      args.domain, args.search, args.candidates, args.gen_seed, args.window);
  std::unique_ptr<util::ThreadPool> pool;
  if (args.threads > 0) pool = std::make_unique<util::ThreadPool>(args.threads);

  search::ShardRunnerConfig shard_config;
  shard_config.store_dir = args.store_dir;
  search::ShardRunner runner(*setup->domain, setup->config, args.seed,
                             shard_config, pool.get());

  svc::SupervisorConfig config;
  config.num_workers = args.workers;
  config.initial_leases = args.leases;
  config.max_restarts = args.max_restarts;
  config.heartbeat_timeout_seconds = args.heartbeat_timeout;
  config.poll_interval_seconds = args.poll_interval;
  config.dir = args.store_dir;
  config.prefix = runner.service_prefix();
  config.resume = !args.fresh;

  // The worker command line: the search flags verbatim (the definition
  // must be process-invariant) plus this lease's range and journal. Fault
  // flags ride along only on a FIRST attempt of an initially-planned
  // lease, so a restart or split child always gets a clean command.
  const auto command = [&](const svc::Lease& lease) {
    std::vector<std::string> argv{
        args.worker_bin, "--mode", "worker",
        "--journal", lease.journal_path,
        "--range-lo", svc::hex_u64(lease.range.lo),
        "--range-hi", svc::hex_u64(lease.range.hi),
        "--store-dir", args.store_dir,
        "--domain", args.domain,
        "--search", args.search,
        "--candidates", std::to_string(args.candidates),
        "--seed", std::to_string(args.seed),
        "--gen-seed", std::to_string(args.gen_seed),
        "--window", std::to_string(args.window),
        "--quiet"};
    if (lease.attempt == 0 && lease.parent == 0) {
      // Initially-planned leases are numbered 1..initial_leases in grant
      // order: crash-inject the first K, stall-inject the next K'.
      if (lease.id <= args.crash_leases) {
        argv.push_back("--crash-after-candidates");
        argv.push_back(std::to_string(args.crash_after));
      } else if (lease.id <= args.crash_leases + args.stall_leases) {
        argv.push_back("--stall-after-candidates");
        argv.push_back(std::to_string(args.stall_after));
      }
    }
    return argv;
  };

  svc::Supervisor supervisor(config, command);
  const svc::SupervisorReport report = supervisor.run();
  std::cout << "supervisor: " << report.leases_planned << " leases planned, "
            << report.leases_completed << " completed, " << report.spawned
            << " workers spawned, " << report.crash_restarts << " restarts, "
            << report.stale_kills << " stale kills, " << report.splits
            << " splits\n"
            << "lease log: " << report.event_log_path << "\n"
            << "cluster status: " << report.cluster_status_path << "\n";
  if (!report.success) {
    std::cerr << "search_service: supervision failed: " << report.error
              << "\n";
    return tools::kExitRuntime;
  }

  // Driver pass: merge every journal any lease ever owned (partials from
  // killed attempts included), then global selection + full training.
  const auto result = runner.merge_and_rank_paths(
      report.journal_paths, *setup->source, setup->fixed);
  std::cout << "driver: merged " << report.journal_paths.size()
            << " lease journals, " << result.cache_hits()
            << " stage results from workers, " << result.n_probes_run
            << " probes and " << result.n_full_trains_run
            << " full trainings executed by the driver\n"
            << "journal: " << runner.merged_store_path() << "\n";
  tools::print_ranking(
      std::cout, result,
      tools::ranked_fingerprints(*setup->source, setup->fixed, result,
                                 setup->config.num_candidates));
  return tools::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "search_service: " << e.what() << "\n";
    return tools::kExitRuntime;
  }
}
