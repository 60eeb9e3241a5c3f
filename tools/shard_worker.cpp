// shard_worker: one process of a search — a supervised lease worker, or
// the whole search in one process.
//
//   worker  executes exactly the candidates whose fingerprint lands in one
//           sub-range and journals them (pre-checks and probes only; the
//           cohort-global stages are the driver's). svc::Supervisor
//           (tools/search_service) spawns one per lease:
//
//     shard_worker --mode worker --journal /tmp/s/lease-3.nsb
//       --range-lo 8000000000000000 --range-hi bfffffffffffffff
//
//           The heartbeat lands at <journal>.status.json.
//   single  the whole funnel in this process, its own journal — the
//           reference run every CI equivalence diff compares against:
//
//     shard_worker --mode single --store-dir /tmp/single
//
// Every multi-worker run goes through search_service; a static N-way run
// is `search_service --workers N --leases N --max-restarts 0
// --heartbeat-timeout 0`.
//
// Ranking lines are printed as `RANK,<position>,<id>,<fingerprint>,<score>`
// so two runs diff with grep + diff. Flags: --domain abr|cc,
// --search state|arch, --candidates N, --seed S, --gen-seed G,
// --threads T (0 = serial), --window W (0 = batch mode; >= 1 streams the
// funnel in rolling windows of W candidates — same rankings and journal
// records, constant memory; CI's streaming smoke run diffs the two),
// --quiet (suppress per-candidate events).
//
// Fault injection (TEST ONLY — they exist so tests/svc_test.cpp and CI's
// supervised smoke run can exercise the supervisor's restart and
// straggler paths with real processes; never set them in a real run):
//   --crash-after-candidates N   after N in-range candidate completions,
//                                append a torn half-frame to the journal
//                                and _exit(42) — a hard kill mid-append,
//                                exercising torn-tail recovery
//   --stall-after-candidates N   after N completions, stop making progress
//                                (and heartbeating) while staying alive —
//                                a straggler for the staleness killer
//
// Exit codes (pinned in tests/svc_test.cpp; the supervisor branches on
// them): 0 ok, 1 runtime failure, 2 bad arguments (supervisor fails fast —
// a restart would reproduce it), 42 injected crash.
//
// Observability sinks (all pure readout — a run with every sink attached
// is bit-identical to a silent run; CI's observability smoke run diffs
// the two; see docs/OBSERVABILITY.md):
//   --metrics-out F   final MetricsRegistry snapshot as one JSON document
//   --trace-out F     every search event as one JSONL line
//   --status-out F    live, atomically-replaced status snapshot
// Worker mode also always writes its heartbeat next to its journal.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/metrics_observer.h"
#include "obs/status.h"
#include "obs/trace_sink.h"
#include "search/observer.h"
#include "search/shard_runner.h"
#include "store/candidate_store.h"
#include "svc/lease_log.h"
#include "tools/cli_common.h"
#include "util/fs.h"
#include "util/thread_pool.h"

namespace {

using namespace nada;

struct Args {
  std::string mode = "single";  // worker | single
  std::string domain = "abr";   // abr | cc
  std::string search = "state";  // state | arch
  std::string store_dir = "nada_store";
  std::size_t candidates = 24;
  std::uint64_t seed = 1234;
  std::uint64_t gen_seed = 77;
  std::size_t threads = 0;
  std::size_t window = 0;
  bool quiet = false;
  std::string metrics_out;
  std::string trace_out;
  std::string status_out;
  // Worker mode: the lease's range + journal.
  std::string journal;
  std::optional<std::uint64_t> range_lo;
  std::optional<std::uint64_t> range_hi;
  // Test-only fault injection.
  std::optional<std::size_t> crash_after;
  std::optional<std::size_t> stall_after;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "shard_worker: " << error << "\n"
            << "usage: shard_worker --mode worker|single"
            << " [--journal F --range-lo HEX --range-hi HEX] [--store-dir DIR]"
            << " [--domain abr|cc] [--search state|arch] [--candidates N]"
            << " [--seed S] [--gen-seed G] [--threads T] [--window W]"
            << " [--quiet] [--metrics-out F] [--trace-out F]"
            << " [--status-out F] [--crash-after-candidates N]"
            << " [--stall-after-candidates N]\n";
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
  auto hex_value = [&](int& i) -> std::uint64_t {
    const std::string text = value(i);
    try {
      return svc::parse_hex_u64(text);
    } catch (const std::exception&) {
      usage(std::string(argv[i - 1]) + ": malformed hex '" + text + "'");
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--mode") args.mode = value(i);
    else if (flag == "--domain") args.domain = value(i);
    else if (flag == "--search") args.search = value(i);
    else if (flag == "--store-dir") args.store_dir = value(i);
    else if (flag == "--candidates") number(i, args.candidates);
    else if (flag == "--seed") number(i, args.seed);
    else if (flag == "--gen-seed") number(i, args.gen_seed);
    else if (flag == "--threads") number(i, args.threads);
    else if (flag == "--window") number(i, args.window);
    else if (flag == "--quiet") args.quiet = true;
    else if (flag == "--metrics-out") args.metrics_out = value(i);
    else if (flag == "--trace-out") args.trace_out = value(i);
    else if (flag == "--status-out") args.status_out = value(i);
    else if (flag == "--journal") args.journal = value(i);
    else if (flag == "--range-lo") args.range_lo = hex_value(i);
    else if (flag == "--range-hi") args.range_hi = hex_value(i);
    else if (flag == "--crash-after-candidates")
      number(i, args.crash_after.emplace());
    else if (flag == "--stall-after-candidates")
      number(i, args.stall_after.emplace());
    else usage("unknown flag " + flag);
  }
  if (args.mode != "worker" && args.mode != "single") {
    usage("bad --mode " + args.mode);
  }
  if (args.domain != "abr" && args.domain != "cc") {
    usage("bad --domain " + args.domain);
  }
  if (args.search != "state" && args.search != "arch") {
    usage("bad --search " + args.search);
  }
  if (args.mode == "worker") {
    if (args.journal.empty() || !args.range_lo || !args.range_hi) {
      usage("--mode worker needs all of --journal, --range-lo, --range-hi");
    }
    if (*args.range_lo > *args.range_hi) {
      usage("--range-lo must be <= --range-hi");
    }
  } else if (!args.journal.empty() || args.range_lo || args.range_hi) {
    usage("--journal/--range-* need --mode worker");
  }
  if ((args.crash_after || args.stall_after) && args.mode != "worker") {
    usage("fault injection needs --mode worker");
  }
  return args;
}

/// TEST ONLY. Counts in-range candidate completions (anything past the
/// entered/out-of-shard bookkeeping: cache hits, failures, probes, ...) and
/// fires the configured fault once the count is reached. The crash mimics a
/// power cut mid-append — half a journal frame, then _exit — so the
/// restarted worker exercises the store's torn-tail recovery for real.
class FaultInjector : public search::Observer {
 public:
  FaultInjector(const Args& args, std::string journal_path)
      : args_(&args), journal_path_(std::move(journal_path)) {}

  void on_candidate(const search::CandidateEvent& event) override {
    if (event.type == search::CandidateEventType::kEntered ||
        event.type == search::CandidateEventType::kOutOfShard) {
      return;
    }
    ++completions_;
    if (args_->crash_after && completions_ >= *args_->crash_after) {
      // A frame header promising more body bytes than follow: a torn
      // final append.
      std::ofstream torn(journal_path_, std::ios::app | std::ios::binary);
      const char partial[] = {100, 0, 0, 0, 1, 2, 3, 4,
                              5,   6, 7, 8, 't', 'o', 'r', 'n'};
      torn.write(partial, sizeof(partial));
      torn.flush();
      std::_Exit(tools::kExitCrashInjected);
    }
    if (args_->stall_after && completions_ >= *args_->stall_after) {
      // Stay alive, make no progress, heartbeat never again (the status
      // writer only writes on events, and no event ever follows): the
      // supervisor's staleness check must kill us.
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }

 private:
  const Args* args_;
  std::string journal_path_;
  std::size_t completions_ = 0;
};

int run(const Args& args) {
  const auto setup = tools::make_search_setup(
      args.domain, args.search, args.candidates, args.gen_seed, args.window);
  std::unique_ptr<util::ThreadPool> pool;
  if (args.threads > 0) pool = std::make_unique<util::ThreadPool>(args.threads);

  // Optional observability sinks. All of them are pure readout; building
  // them up front keeps the modes identical in what they attach.
  search::StreamObserver observer(std::cout, !args.quiet);
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::MetricsObserver> metrics_observer;
  std::unique_ptr<obs::TraceSink> trace;
  std::unique_ptr<obs::StatusWriter> status;
  std::vector<search::Observer*> observers{&observer};
  if (!args.metrics_out.empty()) {
    registry = std::make_unique<obs::MetricsRegistry>();
    metrics_observer = std::make_unique<obs::MetricsObserver>(*registry);
    observers.push_back(metrics_observer.get());
  }
  if (!args.trace_out.empty()) {
    util::ensure_directories(util::parent_directory(args.trace_out));
    trace = std::make_unique<obs::TraceSink>(args.trace_out);
    observers.push_back(trace.get());
  }
  if (!args.status_out.empty()) {
    util::ensure_directories(util::parent_directory(args.status_out));
    status = std::make_unique<obs::StatusWriter>(
        obs::StatusConfig{args.status_out, args.mode, args.candidates});
    observers.push_back(status.get());
  }
  // Final sink writes shared by every mode: terminal status snapshot, then
  // the metrics snapshot (one JSON document, atomically replaced).
  const auto finish_sinks = [&] {
    if (status != nullptr) status->finish();
    if (registry != nullptr) {
      util::ensure_directories(util::parent_directory(args.metrics_out));
      util::write_file_atomic(args.metrics_out,
                              registry->snapshot().dump() + "\n");
      std::cout << "metrics: " << args.metrics_out << "\n";
    }
  };

  if (args.mode == "worker") {
    search::ShardRunnerConfig runner_config;
    runner_config.metrics = registry.get();
    search::ShardRunner runner(*setup->domain, setup->config, args.seed,
                               runner_config, pool.get());
    std::unique_ptr<FaultInjector> fault;
    if (args.crash_after || args.stall_after) {
      fault = std::make_unique<FaultInjector>(args, args.journal);
      observers.push_back(fault.get());
    }
    const store::ShardPlan::Range range{*args.range_lo, *args.range_hi};
    const auto result = runner.run_range(range, args.journal, *setup->source,
                                         setup->fixed, observers);
    std::cout << "lease [" << svc::hex_u64(range.lo) << ", "
              << svc::hex_u64(range.hi) << "]: "
              << result.n_total - result.n_out_of_shard << " of "
              << result.n_total << " candidates in range, "
              << result.n_probes_run << " probes run, "
              << result.cache_hits() << " cache hits\n"
              << "journal: " << args.journal << "\n";
    finish_sinks();
    return tools::kExitOk;
  }

  // single: the whole funnel in this process, its own journal.
  util::ensure_directories(args.store_dir);
  const auto scope =
      search::store_scope(*setup->domain, setup->config, args.seed);
  store::CandidateStore store(
      args.store_dir + "/" + scope.env + "-" +
          scope.config_digest.substr(0, 12) + "-single.nsb",
      scope);
  search::JobOptions options;
  options.store = &store;
  options.pool = pool.get();
  options.metrics = registry.get();
  search::SearchJob job(*setup->domain, setup->config, args.seed,
                        *setup->source, setup->fixed, options);
  for (search::Observer* o : observers) job.add_observer(o);
  const auto result = job.run_to_completion();
  std::cout << "single: " << result.n_probes_run << " probes and "
            << result.n_full_trains_run << " full trainings executed\n"
            << "journal: " << store.path() << "\n";
  tools::print_ranking(
      std::cout, result,
      tools::ranked_fingerprints(*setup->source, setup->fixed, result,
                                 setup->config.num_candidates));
  finish_sinks();
  return tools::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "shard_worker: " << e.what() << "\n";
    return tools::kExitRuntime;
  }
}
