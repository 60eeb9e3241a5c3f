// Shared value types of the search API: the funnel configuration, the
// per-candidate outcome, and the ranked result.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "filter/checks.h"
#include "nn/arch.h"
#include "rl/session.h"
#include "rl/trainer.h"
#include "trace/generator.h"
#include "util/scale.h"

namespace nada::search {

struct SearchConfig {
  std::size_t num_candidates = 150;
  /// Epochs for the early "batch training" probe (the paper's first-K
  /// reward window).
  std::size_t early_epochs = 60;
  /// How many ranked survivors get the full training budget.
  std::size_t full_train_top = 6;
  /// Sessions (seeds) for full-scale training.
  std::size_t seeds = 3;
  rl::TrainConfig train;  ///< full-scale budget; early probe reuses it with
                          ///< `early_epochs` epochs
  /// Architecture used for the baseline and for state-search candidates.
  nn::ArchSpec baseline_arch = nn::ArchSpec::pensieve();
  double normalization_threshold = filter::kNormalizationThreshold;
  std::size_t normalization_fuzz_runs = 16;
  /// Read by nothing: every probe is its own task on the training engine.
  /// Kept only because the end-to-end benchmark harness still passes it
  /// to rl::BatchProbeConfig::block_size, which is unread too.
  std::size_t probe_block = 4;
  /// Rolling-window streaming. 0 (the default) materializes the whole
  /// candidate stream up front — the historical batch mode, byte-for-byte.
  /// >= 1 pulls, pre-checks, and probes the stream in windows of this many
  /// candidates, retiring each window's per-candidate state (specs,
  /// programs, reward curves — journaled to the store first when one is
  /// attached) before the next window is generated: peak memory is
  /// O(window_size + full_train_top) instead of O(num_candidates). The
  /// running selection keeps only the top full_train_top probes across
  /// windows, so SearchResult::outcomes holds just the retained candidates
  /// (see SearchResult). Rankings, journal records, and store keys are
  /// identical to batch mode for the same seeds; this is an execution
  /// knob and never feeds store_scope().
  std::size_t window_size = 0;

  [[nodiscard]] bool streaming() const { return window_size > 0; }
};

/// Up-front validation with descriptive errors: num_candidates >= 1,
/// 1 <= full_train_top <= num_candidates, seeds >= 1, early_epochs >= 1.
/// Throws std::invalid_argument.
void validate_config(const SearchConfig& config);

/// Pensieve's architecture with every tower width scaled by `scale.model`
/// (rounded, at least 8 units).
[[nodiscard]] nn::ArchSpec scaled_arch(const util::ScaleConfig& scale);

/// Environment-scaled SearchConfig: applies ScaleConfig to the paper's
/// budgets for `env` (Table 1 epochs / test interval, 3,000 candidates),
/// with scaled_arch(scale) as the baseline architecture.
[[nodiscard]] SearchConfig scaled_config(trace::Environment env,
                                         const util::ScaleConfig& scale);

/// Everything that happened to one candidate on its way through the funnel.
struct CandidateOutcome {
  std::string id;
  /// Position in the candidate stream. In batch mode this equals the
  /// outcome's index in SearchResult::outcomes; in streaming mode the
  /// result holds only the retained candidates, so the stream position
  /// must travel with the outcome.
  std::size_t stream_index = 0;
  std::string source;            ///< state candidates only
  std::optional<nn::ArchSpec> arch;  ///< architecture candidates only
  bool compiled = false;
  std::string compile_error;
  bool normalized = false;       ///< always true for architecture candidates
  std::string normalization_error;
  bool early_probed = false;
  std::vector<double> early_rewards;
  bool early_stopped = false;    ///< filtered out after the probe
  bool fully_trained = false;
  double test_score = -1e9;      ///< paper's test score (median over seeds)
  double emulation_score = 0.0;  ///< Table-4 style emulation score, if asked
  std::vector<double> curve_epochs;  ///< checkpoint curve of the full run
  std::vector<double> median_curve;
};

struct SearchResult {
  /// Batch mode: one outcome per stream position (outcomes[i].stream_index
  /// == i). Streaming mode: only the candidates the running selection
  /// retained — the full-training cohort, in selection order (probe score
  /// desc, stream position asc); everything else was journaled (when a
  /// store is attached) and retired window by window. The funnel counters
  /// below always cover the whole stream in both modes.
  std::vector<CandidateOutcome> outcomes;
  std::size_t n_total = 0;
  std::size_t n_compiled = 0;
  std::size_t n_normalized = 0;
  std::size_t n_early_stopped = 0;
  std::size_t n_fully_trained = 0;
  /// Candidates outside this job's fingerprint range (JobOptions::range;
  /// always 0 without one). The name predates ranges and is kept because
  /// it feeds the published `out_of_shard` metric and status counter.
  std::size_t n_out_of_shard = 0;
  /// Stage results served from the attached candidate store instead of
  /// recomputed (always 0 without a store).
  std::size_t n_precheck_cache_hits = 0;
  std::size_t n_probe_cache_hits = 0;
  std::size_t n_full_cache_hits = 0;
  /// Work actually executed by this invocation (cache misses). A rerun
  /// over an unchanged stream reports n_probes_run == n_full_trains_run
  /// == 0: every result comes from the store.
  std::size_t n_probes_run = 0;
  std::size_t n_full_trains_run = 0;

  [[nodiscard]] std::size_t cache_hits() const {
    return n_precheck_cache_hits + n_probe_cache_hits + n_full_cache_hits;
  }
  /// Baseline: the original design trained with the same protocol.
  rl::SessionResult original;
  double original_score = 0.0;
  /// Index into `outcomes` of the best fully trained candidate, or npos.
  std::size_t best_index = SIZE_MAX;
  double best_score = -1e9;

  [[nodiscard]] bool has_best() const { return best_index != SIZE_MAX; }
  /// Relative improvement of the best candidate over the trained baseline:
  /// (best - original) / |original|. Degenerate baseline semantics: when
  /// original_score is exactly 0.0 the relative form is undefined (division
  /// by zero), so the method falls back to the absolute delta
  /// best_score - original_score == best_score — a valid best never reports
  /// zero improvement just because the baseline landed on 0. Without a best
  /// (has_best() == false) the improvement is 0.
  [[nodiscard]] double improvement() const {
    if (!has_best()) return 0.0;
    if (original_score == 0.0) return best_score - original_score;
    return (best_score - original_score) / std::abs(original_score);
  }
};

}  // namespace nada::search
