// shard_worker: the multi-process sharded-search CLI.
//
// One search, N worker processes, one driver. Every process replays the
// same candidate stream; a worker executes only its slice of the
// fingerprint space and journals into its own shard store; the driver
// merges the shard journals, selects globally, runs the top-K full
// trainings, and prints the ranking. `single` mode runs the identical
// search in one process — its ranking and journal records must match the
// sharded run exactly (CI diffs them; tests/search_test.cpp pins the same
// property in-process).
//
//   # four workers (any order, any machines sharing the store dir), then
//   # the driver:
//   for i in 0 1 2 3; do
//     shard_worker --mode worker --shard $i --shards 4 --store-dir /tmp/s &
//   done; wait
//   shard_worker --mode merge --shards 4 --store-dir /tmp/s
//
//   # the same search, one process:
//   shard_worker --mode single --store-dir /tmp/single
//
// Worker mode has a second face: a LEASE worker under the svc::Supervisor
// (tools/search_service). Instead of --shard/--shards it takes an explicit
// fingerprint sub-range and journal —
//
//   shard_worker --mode worker --journal /tmp/s/lease-3.nsb \
//     --range-lo 8000000000000000 --range-hi bfffffffffffffff
//
// — because supervised ranges are born from splits and re-grants, not from
// a static plan. The heartbeat lands at <journal>.status.json either way.
//
// Ranking lines are printed as `RANK,<position>,<id>,<fingerprint>,<score>`
// so two runs diff with grep + diff. Flags: --domain abr|cc,
// --search state|arch, --candidates N, --seed S, --gen-seed G,
// --threads T (0 = serial), --window W (0 = batch mode; >= 1 streams the
// funnel in rolling windows of W candidates — same rankings and journal
// records, constant memory; the stream-equivalence-smoke CI job diffs the
// two), --quiet (suppress per-candidate events).
//
// Fault injection (TEST ONLY — they exist so tests/svc_test.cpp and the
// supervisor-smoke CI job can exercise the supervisor's restart and
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
// is bit-identical to a silent run; the metrics-smoke CI job diffs the
// two; see docs/OBSERVABILITY.md):
//   --metrics-out F   final MetricsRegistry snapshot as one JSON document
//   --trace-out F     every search event as one JSONL line
//   --status-out F    live, atomically-replaced status snapshot
// Sharded runs additionally always get per-worker heartbeat files next to
// the shard journals (<journal>.status.json); merge mode prints one
// summary line per worker from them and writes the cluster aggregate.
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
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace nada;

struct Args {
  std::string mode = "single";  // worker | merge | single
  std::string domain = "abr";   // abr | cc
  std::string search = "state";  // state | arch
  std::string store_dir = "nada_store";
  std::size_t shards = 1;
  std::size_t shard = 0;
  std::size_t candidates = 24;
  std::uint64_t seed = 1234;
  std::uint64_t gen_seed = 77;
  std::size_t threads = 0;
  std::size_t window = 0;
  bool quiet = false;
  std::string metrics_out;
  std::string trace_out;
  std::string status_out;
  // Lease mode (supervised worker): explicit range + journal.
  std::string journal;
  std::optional<std::uint64_t> range_lo;
  std::optional<std::uint64_t> range_hi;
  // Test-only fault injection.
  std::optional<std::size_t> crash_after;
  std::optional<std::size_t> stall_after;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "shard_worker: " << error << "\n"
            << "usage: shard_worker --mode worker|merge|single"
            << " [--shard I] [--shards N] [--store-dir DIR]"
            << " [--journal F --range-lo HEX --range-hi HEX]"
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
    else if (flag == "--shards") args.shards = std::stoul(value(i));
    else if (flag == "--shard") args.shard = std::stoul(value(i));
    else if (flag == "--candidates") args.candidates = std::stoul(value(i));
    else if (flag == "--seed") args.seed = std::stoull(value(i));
    else if (flag == "--gen-seed") args.gen_seed = std::stoull(value(i));
    else if (flag == "--threads") args.threads = std::stoul(value(i));
    else if (flag == "--window") args.window = std::stoul(value(i));
    else if (flag == "--quiet") args.quiet = true;
    else if (flag == "--metrics-out") args.metrics_out = value(i);
    else if (flag == "--trace-out") args.trace_out = value(i);
    else if (flag == "--status-out") args.status_out = value(i);
    else if (flag == "--journal") args.journal = value(i);
    else if (flag == "--range-lo") args.range_lo = hex_value(i);
    else if (flag == "--range-hi") args.range_hi = hex_value(i);
    else if (flag == "--crash-after-candidates")
      args.crash_after = std::stoul(value(i));
    else if (flag == "--stall-after-candidates")
      args.stall_after = std::stoul(value(i));
    else usage("unknown flag " + flag);
  }
  if (args.mode != "worker" && args.mode != "merge" && args.mode != "single") {
    usage("bad --mode " + args.mode);
  }
  if (args.domain != "abr" && args.domain != "cc") {
    usage("bad --domain " + args.domain);
  }
  if (args.search != "state" && args.search != "arch") {
    usage("bad --search " + args.search);
  }
  if (args.shards == 0) usage("--shards must be >= 1");
  if (args.mode == "worker" && args.shard >= args.shards) {
    usage("--shard out of range");
  }
  const bool lease = !args.journal.empty() || args.range_lo.has_value() ||
                     args.range_hi.has_value();
  if (lease) {
    if (args.mode != "worker") usage("--journal/--range-* need --mode worker");
    if (args.journal.empty() || !args.range_lo || !args.range_hi) {
      usage("lease mode needs all of --journal, --range-lo, --range-hi");
    }
    if (*args.range_lo > *args.range_hi) {
      usage("--range-lo must be <= --range-hi");
    }
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
    const std::string label =
        args.mode == "worker" ? "worker-" + std::to_string(args.shard) + "/" +
                                    std::to_string(args.shards)
        : args.mode == "merge" ? "driver"
                               : "single";
    status = std::make_unique<obs::StatusWriter>(
        obs::StatusConfig{args.status_out, label, args.candidates});
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

  search::ShardRunnerConfig shard_config;
  shard_config.num_shards = args.shards;
  shard_config.store_dir = args.store_dir;
  shard_config.metrics = registry.get();
  search::ShardRunner runner(*setup->domain, setup->config, args.seed,
                             shard_config, pool.get());

  if (args.mode == "worker") {
    const bool lease = !args.journal.empty();
    const std::string journal_path =
        lease ? args.journal : runner.shard_store_path(args.shard);
    std::unique_ptr<FaultInjector> fault;
    if (args.crash_after || args.stall_after) {
      fault = std::make_unique<FaultInjector>(args, journal_path);
      observers.push_back(fault.get());
    }
    search::SearchResult result;
    if (lease) {
      const store::ShardPlan::Range range{*args.range_lo, *args.range_hi};
      result = runner.run_range(range, journal_path, *setup->source,
                                setup->fixed, observers);
      std::cout << "lease [" << svc::hex_u64(range.lo) << ", "
                << svc::hex_u64(range.hi) << "]: ";
    } else {
      result = runner.run_worker(args.shard, *setup->source, setup->fixed,
                                 observers);
      std::cout << "worker " << args.shard << "/" << args.shards << ": ";
    }
    std::cout << result.n_total - result.n_out_of_shard << " of "
              << result.n_total << " candidates in range, "
              << result.n_probes_run << " probes run, "
              << result.cache_hits() << " cache hits\n"
              << "journal: " << journal_path << "\n";
    finish_sinks();
    return tools::kExitOk;
  }

  if (args.mode == "merge") {
    const auto result = runner.merge_and_rank(*setup->source, setup->fixed,
                                              nullptr, observers);
    std::cout << "driver: merged " << args.shards << " shard journals, "
              << result.cache_hits() << " stage results from shards, "
              << result.n_probes_run << " probes and "
              << result.n_full_trains_run
              << " full trainings executed by the driver\n"
              << "journal: " << runner.merged_store_path() << "\n";
    // One summary line per worker from its heartbeat file, then the
    // cluster-level aggregate document.
    const auto statuses = runner.worker_statuses();
    for (std::size_t shard = 0; shard < statuses.size(); ++shard) {
      if (!statuses[shard].has_value()) {
        std::cout << "worker " << shard << ": no status reported\n";
        continue;
      }
      const auto& worker = *statuses[shard];
      std::cout << "worker " << shard << ": "
                << worker.counter("entered") << " candidates, "
                << worker.counter("cache_hits") << " cache hits, "
                << worker.counter("failed") << " failures, "
                << util::format_duration(worker.elapsed_seconds) << "\n";
    }
    runner.write_merged_status();
    std::cout << "cluster status: " << runner.aggregate_status_path() << "\n";
    tools::print_ranking(
        std::cout, result,
        tools::ranked_fingerprints(*setup->source, setup->fixed, result,
                                   setup->config.num_candidates));
    finish_sinks();
    return tools::kExitOk;
  }

  // single: the whole funnel in this process, its own journal.
  util::ensure_directories(args.store_dir);
  const auto scope = runner.scope();
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
