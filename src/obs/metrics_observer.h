// MetricsObserver: folds the search::Observer event stream into a
// MetricsRegistry.
//
// Attach one to a SearchJob (or pass it through ShardRunner) and the
// registry accumulates, live:
//
//   counters    search.candidates.{entered,out_of_shard,cache_hits,failed,
//               probed,early_stopped,trained}   (out_of_shard: outside
//               the job's fingerprint range)
//               search.stage.<label>.runs      (stage executions —
//               generate/precheck/probe run once per window)
//               search.windows.completed, search.windows.candidates
//               (a batch job is one window over the whole stream)
//   histograms  search.stage.<label>.seconds   (per-execution wall-clock)
//               search.window.seconds
//   gauges      search.progress.stream_position   (candidates pulled)
//               search.throughput.candidates_per_sec
//               search.rate.cache_hit / search.rate.failed /
//               search.rate.early_stopped   (of in-range entered candidates)
//
// Pure readout: the observer never feeds a search decision, so attaching
// it cannot change rankings or journal bytes. Counter updates are atomic
// and the derived-rate state is atomic too, so the observer tolerates
// events from several jobs (a multi-shard bench) concurrently; within one
// job the SearchJob already serializes dispatch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>

#include "obs/metrics.h"
#include "search/observer.h"

namespace nada::obs {

class MetricsObserver : public search::Observer {
 public:
  /// `registry` must outlive the observer. Throughput is measured from
  /// construction time.
  explicit MetricsObserver(MetricsRegistry& registry);

  void on_stage_start(search::StageKind stage) override;
  void on_stage_finish(const search::StageEvent& event) override;
  void on_candidate(const search::CandidateEvent& event) override;
  void on_window_start(std::size_t index, std::size_t first) override;
  void on_window_finish(const search::WindowEvent& event) override;

  [[nodiscard]] MetricsRegistry& registry() { return *registry_; }

 private:
  void update_rates();

  MetricsRegistry* registry_;
  std::chrono::steady_clock::time_point start_;
  // Running tallies behind the derived-rate gauges.
  std::atomic<std::uint64_t> entered_{0};
  std::atomic<std::uint64_t> out_of_shard_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> early_stopped_{0};
  std::atomic<std::uint64_t> max_stream_position_{0};
};

}  // namespace nada::obs
