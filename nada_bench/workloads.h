// The benchmark's four workloads and what one run of each reports.
//
// Every workload is a closed batch: one search of a fixed size whose
// candidate stream is pulled as fast as the funnel goes, on run_threads()
// threads. --seed derives the job seed; the candidate streams and the
// domains' data (traces, video, CC simulator) are fixed (workloads.cpp
// says why).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace nada::bench {

enum class WorkloadId {
  kAbrStateStream,
  kCcArchBatch,
  kAbrStateWarm,
  kAbrStateSupervised,
};

/// The reasons for each workload are in BENCHMARK.json and README.md.
struct WorkloadInfo {
  WorkloadId id;
  const char* name;
};

/// Threads of a run (its pool, and the supervised workload's worker
/// slots): min(4, CPUs this process may run on).
[[nodiscard]] std::size_t run_threads();

[[nodiscard]] const std::vector<WorkloadInfo>& all_workloads();
/// nullptr for an unknown name.
[[nodiscard]] const WorkloadInfo* find_workload(std::string_view name);

struct RunContext {
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::string dir;       ///< this run's scratch directory (journals, leases)
  std::string self_exe;  ///< this binary, re-executed as supervised workers
  /// abr-state-warm: the journal prepare_warm_journal wrote, which every
  /// warm run replays.
  std::string warm_journal;
  /// A traced run records spans, registry counters and allocations, and
  /// reports the per-layer metrics of the search.
  bool traced = false;
  /// Traced runs with a path also replay the single layers (layers.h) and
  /// write their spans here.
  std::string trace_path;
};

/// One run's measurements and correctness digests, sent from the forked
/// child to the benchmark process.
struct RunReport {
  double candidates = 0.0;    ///< N, the stream length
  /// Building everything before the first stage / Supervisor::run, in
  /// reference-host seconds: the fastest of one set-up per CPU, each
  /// divided by its CPU's slowdown (host_speed.h).
  double setup_s = 0.0;
  double search_s = 0.0;      ///< wall time of the search itself
  double search_cpu_s = 0.0;  ///< user + sys over the search (incl. workers)
  /// host_slowdown() before and after the search, averaged; the search's
  /// times divided by it read in reference-host seconds.
  double host_slowdown = 1.0;
  // Correctness pins: equal across runs of one seed, equal to golden.json
  // at the default seed.
  std::string ranking;   ///< digest of the final ranking + baseline score
  std::string counters;  ///< funnel counters, readable
  std::string records;   ///< digest of the sorted canonical record set
  /// Broken run invariants (a warm run that probed, a supervised run that
  /// restarted a worker, ...). Any entry fails the run.
  std::vector<std::string> violations;
  /// Per-layer metrics (traced run only).
  std::map<std::string, double> layers;

  [[nodiscard]] util::JsonValue to_json() const;
  [[nodiscard]] static RunReport from_json(const util::JsonValue& doc);
};

/// One run of `id`. Runs inside the forked child.
[[nodiscard]] RunReport run_workload(WorkloadId id, const RunContext& ctx);

/// abr-state-warm's untimed cold run: searches the warm stream against a
/// fresh journal at ctx.warm_journal, which the warm runs then replay.
[[nodiscard]] RunReport prepare_warm_journal(const RunContext& ctx);

/// The hidden `worker` mode: one supervised lease of abr-state-supervised
/// (`nada_bench worker --seed S --journal J --range-lo HEX --range-hi HEX`).
/// Returns the process exit code.
int worker_main(int argc, char** argv);

}  // namespace nada::bench
