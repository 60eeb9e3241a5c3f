// Shared boilerplate for the example binaries: demo-scale funnel configs,
// the store-dir setup every store-backed example repeats, and the funnel
// summary printer. Examples stay single-file and readable; this header
// keeps them from each re-implementing the same setup with drifting
// details.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/metrics_observer.h"
#include "obs/status.h"
#include "obs/trace_sink.h"
#include "search/search_job.h"
#include "search/types.h"
#include "store/candidate_store.h"
#include "util/fs.h"

namespace nada::examples {

/// Pensieve's architecture with demo-scale tower widths. Any width left 0
/// keeps the paper-scale default.
inline nn::ArchSpec small_pensieve_arch(std::size_t conv_filters,
                                        std::size_t rnn_hidden,
                                        std::size_t scalar_hidden,
                                        std::size_t merge_hidden) {
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  if (conv_filters != 0) arch.conv_filters = conv_filters;
  if (rnn_hidden != 0) arch.rnn_hidden = rnn_hidden;
  if (scalar_hidden != 0) arch.scalar_hidden = scalar_hidden;
  if (merge_hidden != 0) arch.merge_hidden = merge_hidden;
  return arch;
}

/// A demo-scale funnel config (seconds, not hours): `candidates` through a
/// `early_epochs`-epoch probe, `full_train_top` survivors across `seeds`
/// seeds of `epochs`-epoch training.
inline search::SearchConfig demo_funnel_config(
    std::size_t candidates, std::size_t early_epochs,
    std::size_t full_train_top, std::size_t seeds, std::size_t epochs,
    std::size_t test_interval, std::size_t max_eval_traces) {
  search::SearchConfig config;
  config.num_candidates = candidates;
  config.early_epochs = early_epochs;
  config.full_train_top = full_train_top;
  config.seeds = seeds;
  config.train.epochs = epochs;
  config.train.test_interval = test_interval;
  config.train.max_eval_traces = max_eval_traces;
  return config;
}

/// Opens (creating if absent) the journal for `scope` under
/// $NADA_STORE_DIR (default ./nada_store) and prints the standard store
/// banner.
inline std::unique_ptr<store::CandidateStore> open_default_store(
    const store::StoreScope& scope, std::ostream& out = std::cout) {
  auto cache = std::make_unique<store::CandidateStore>(
      store::default_store_path(scope), scope);
  out << "store: " << cache->path() << " (" << cache->size()
      << " records on open, scope " << scope.env << "/"
      << scope.config_digest.substr(0, 12) << "...)\n";
  return cache;
}

/// The observability sinks selected by three output paths; an empty path
/// selects nothing and costs nothing:
///
///   metrics  final registry snapshot, written by finish()
///   trace    every search event, one JSONL line
///   status   live atomic status snapshot (`label`, `total_candidates`)
///
/// All sinks are pure readout — results are bit-identical with and without
/// them (see docs/OBSERVABILITY.md).
struct Sinks {
  Sinks(std::string metrics_out, const std::string& trace_out,
        const std::string& status_out, const std::string& label,
        std::size_t total_candidates)
      : metrics_path(std::move(metrics_out)) {
    if (!metrics_path.empty()) {
      registry = std::make_unique<obs::MetricsRegistry>();
      metrics = std::make_unique<obs::MetricsObserver>(*registry);
    }
    if (!trace_out.empty()) {
      util::ensure_directories(util::parent_directory(trace_out));
      trace = std::make_unique<obs::TraceSink>(trace_out);
    }
    if (!status_out.empty()) {
      util::ensure_directories(util::parent_directory(status_out));
      status = std::make_unique<obs::StatusWriter>(
          obs::StatusConfig{status_out, label, total_candidates});
    }
  }

  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::MetricsObserver> metrics;
  std::unique_ptr<obs::TraceSink> trace;
  std::unique_ptr<obs::StatusWriter> status;
  std::string metrics_path;

  /// The active sinks as job observers. Pair with
  /// `options.metrics = sinks.registry.get()` before constructing the job
  /// to also capture the hot-path profiling histograms.
  [[nodiscard]] std::vector<search::Observer*> observers() const {
    std::vector<search::Observer*> out;
    if (metrics != nullptr) out.push_back(metrics.get());
    if (trace != nullptr) out.push_back(trace.get());
    if (status != nullptr) out.push_back(status.get());
    return out;
  }

  void attach(search::SearchJob& job) const {
    for (search::Observer* o : observers()) job.add_observer(o);
  }

  /// Terminal status snapshot + the metrics dump. Call once, after the
  /// last attached job completes.
  void finish(std::ostream& out = std::cout) {
    if (status != nullptr) status->finish();
    if (registry != nullptr) {
      util::ensure_directories(util::parent_directory(metrics_path));
      util::write_file_atomic(metrics_path,
                              registry->snapshot().dump() + "\n");
      out << "metrics: " << metrics_path << "\n";
    }
  }
};

/// The sinks selected by the NADA_METRICS_OUT, NADA_TRACE_OUT and
/// NADA_STATUS_OUT environment variables (the examples parse no flags).
inline Sinks env_sinks(const std::string& label,
                       std::size_t total_candidates) {
  const auto env_path = [](const char* name) {
    const char* value = std::getenv(name);
    return std::string(value != nullptr ? value : "");
  };
  return Sinks(env_path("NADA_METRICS_OUT"), env_path("NADA_TRACE_OUT"),
               env_path("NADA_STATUS_OUT"), label, total_candidates);
}

/// The funnel-counts summary every search example prints.
inline void print_funnel_summary(const search::SearchResult& result,
                                 std::ostream& out = std::cout) {
  out << "funnel: " << result.n_total << " candidates, " << result.n_compiled
      << " compiled, " << result.n_normalized << " well-normalized, "
      << result.n_early_stopped << " early-stopped, "
      << result.n_fully_trained << " fully trained\n"
      << "work:   " << result.n_probes_run << " probes and "
      << result.n_full_trains_run << " full trainings executed; "
      << result.cache_hits() << " stage results from cache\n";
  if (result.has_best()) {
    out << "best:   " << result.outcomes[result.best_index].id << " score "
        << result.best_score << " (baseline " << result.original_score
        << ")\n";
  }
}

}  // namespace nada::examples
