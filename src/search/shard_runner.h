// ShardRunner: the two in-process passes of a multi-worker search.
//
// A multi-worker search splits the per-candidate work (pre-checks + probes
// — the wide part of the funnel) across workers by fingerprint range.
// svc::Supervisor (tools/search_service) plans the ranges as leases, spawns
// one worker process per lease, restarts crashes and splits stragglers;
// this class is what the worker and the driver each run:
//
//   worker:  run_range — replay the SAME generator stream, execute only
//            the candidates whose fingerprint lands in the lease's range,
//            journal into the lease's journal  (shard_worker --mode worker)
//   driver:  merge_and_rank_paths — merge every lease journal into one
//            store, then run the full funnel against it: every pre-check
//            and probe is served from the merged checkpoint, selection is
//            GLOBAL, and only the selected top-K full trainings execute
//
// Because range membership is by content hash and per-candidate seeds are
// fingerprint-derived, the merged run is bit-identical to a single-process
// run of the same stream for ANY partition of the fingerprint space: same
// rankings, same journal records (tests/search_test.cpp pins a 4-range vs
// single-process run). A static N-way run is N run_range passes over
// store::ShardPlan(N).range(i); from the CLI it is `search_service
// --workers N --leases N --max-restarts 0 --heartbeat-timeout 0`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "env/domain.h"
#include "filter/earlystop.h"
#include "search/search_job.h"
#include "util/thread_pool.h"

namespace nada::search {

struct ShardRunnerConfig {
  /// Read by nothing: ranges come from run_range's caller or the
  /// supervisor's lease plan. Kept only because the end-to-end benchmark
  /// harness still assigns it.
  std::size_t num_shards = 1;
  /// Directory holding the merged journal and the driver's status file.
  std::string store_dir = "nada_store";
  /// Maintain a live obs::StatusWriter snapshot per pass: a worker's at
  /// <journal>.status.json (the heartbeat the supervisor watches), the
  /// driver's at merged_status_path(). On by default: the snapshots are
  /// tiny and atomically replaced. Pure readout — results are unaffected.
  bool worker_status = true;
  /// Optional profiling registry shared by every job this runner builds
  /// (wired into JobOptions::metrics, and from there into the stores and
  /// probe blocks). Must outlive the runner's calls.
  obs::MetricsRegistry* metrics = nullptr;
};

class ShardRunner {
 public:
  /// Throws std::invalid_argument on a degenerate config.
  ShardRunner(const env::TaskDomain& domain, SearchConfig config,
              std::uint64_t seed, ShardRunnerConfig shards,
              util::ThreadPool* pool = nullptr);

  [[nodiscard]] const store::StoreScope& scope() const { return scope_; }

  /// The driver's merged journal and live status snapshot, derived from
  /// the scope so concurrent searches with different protocols never
  /// collide in one directory.
  [[nodiscard]] std::string merged_store_path() const;
  [[nodiscard]] std::string merged_status_path() const;

  /// Scope-derived file-name prefix for svc::SupervisorConfig::prefix
  /// (same convention as merged_store_path).
  [[nodiscard]] std::string service_prefix() const;

  /// One worker's pass: pre-checks and probes exactly the candidates whose
  /// fingerprint lands in `range`, journaling into `journal_path` with the
  /// heartbeat at journal_path + ".status.json". Stops before the baseline
  /// (that stage and the ones after it need the whole cohort). Safe to run
  /// concurrently with other ranges' passes in other processes or threads.
  /// All `observers` (nullptrs are ignored) see the job's events.
  SearchResult run_range(const store::ShardPlan::Range& range,
                         const std::string& journal_path,
                         CandidateSource& source, const FixedDesign& fixed,
                         const std::vector<Observer*>& observers = {});

  /// The driver's pass: merges `journals` (typically
  /// svc::SupervisorReport::journal_paths — every journal any lease attempt
  /// ever owned, partials included) into merged_store_path(), then runs the
  /// full funnel against the merged store — global selection, full
  /// training, final ranking. A missing journal is skipped
  /// (store::merge_shard_files): whatever the merge lacks, the funnel pass
  /// recomputes bit-identically.
  SearchResult merge_and_rank_paths(std::span<const std::string> journals,
                                    CandidateSource& source,
                                    const FixedDesign& fixed,
                                    const filter::EarlyStopModel* early_stop = nullptr,
                                    const std::vector<Observer*>& observers = {});

 private:
  /// Builds one job over `options` (pool and metrics filled in here), its
  /// status writer and its observers, and steps it until `stop` would run
  /// next (kDone: to completion).
  SearchResult run_pass(CandidateSource& source, const FixedDesign& fixed,
                        JobOptions options, const std::string& status_path,
                        const std::string& label,
                        const std::vector<Observer*>& observers,
                        StageKind stop);

  const env::TaskDomain* domain_;
  SearchConfig config_;
  std::uint64_t seed_;
  ShardRunnerConfig shards_;
  util::ThreadPool* pool_;
  store::StoreScope scope_;
};

}  // namespace nada::search
