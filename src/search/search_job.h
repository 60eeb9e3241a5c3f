// SearchJob: the NADA funnel (Figure 1) as an incrementally steppable job.
//
// One job pulls one candidate stream through generate -> pre-check ->
// probe -> baseline -> select -> full-train -> rank. It is the funnel's one
// driver; a job
//
//   * is steppable: next_stage() executes exactly one stage, so callers
//     interleave their own work, stop early (range workers run only
//     through the probe stage), or drive progress UIs,
//   * streams events: Observers see every stage transition (with timings),
//     every candidate milestone, and — in streaming mode — every rolling
//     window as it happens,
//   * is kind-unified: the stream may hold state-program and architecture
//     candidates in any mix (CandidateSpec), one funnel code path,
//   * folds resume in: resume() rewinds the source and re-runs against the
//     attached store, serving every journaled stage from the checkpoint.
//
// Candidates are PULLED from the CandidateSource, not materialized up
// front. SearchConfig::window_size picks between two execution modes:
//
//   batch (window_size == 0, the default): one window spans the whole
//   stream. Every candidate's outcome is kept and returned —
//   SearchResult::outcomes[i] is stream position i. Peak memory is
//   O(num_candidates).
//
//   streaming (window_size >= 1): the per-candidate stages repeat in
//   rolling windows — the job pulls window_size candidates, pre-checks and
//   probes them, folds the window into a running selection (top
//   full_train_top probes by tail reward, candidate events and journal
//   writes included), and retires the window's specs, programs, and reward
//   curves before pulling the next. The stage sequence cycles
//   generate -> precheck -> probe until the stream is spent, then runs the
//   cohort-global stages once. Peak memory is O(window_size +
//   full_train_top); SearchResult::outcomes holds only the retained
//   candidates (stream positions travel in CandidateOutcome::stream_index).
//
// Determinism contract: per-candidate seeds are fingerprint-derived and
// every journal write and candidate event happens on the stepping thread in
// stream order, so a job's results and journal bytes do not depend on its
// thread pool (tests/integration_test.cpp pins pool-less vs pooled journal
// bytes). Streaming mode produces the same rankings and the same store
// journal records as batch mode for the same seeds — where the work runs
// cannot change what it computes; only the journal's line ORDER differs
// (windows interleave check/probe records). tests/stream_test.cpp
// pins batch-vs-streaming equivalence for ABR and CC, serial and split
// across fingerprint-range workers.
// One caveat: without an attached store, a candidate whose duplicate
// appeared in an earlier (already retired) window is re-probed rather than
// copied — the results are identical either way, only n_probes_run grows;
// with a store the duplicate is served from the journal like any warm hit.
//
// A job is single-shot: once done() it cannot be restarted (build a new
// job for another pass; construction is cheap, the store carries the
// memory).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "env/domain.h"
#include "filter/earlystop.h"
#include "obs/metrics.h"
#include "search/candidate.h"
#include "search/observer.h"
#include "search/types.h"
#include "store/candidate_store.h"
#include "store/shard.h"
#include "util/thread_pool.h"

namespace nada::search {

/// The (environment, funnel-config digest) scope a search's results live
/// under in a candidate store. Everything that changes a stored
/// per-candidate result — training protocol, probe budget, seeds,
/// normalization check parameters, the job seed, the identity of the
/// domain's data, and the simulator-semantics revision — feeds the digest;
/// selection-only knobs (num_candidates, full_train_top) and the execution
/// knob window_size do not.
[[nodiscard]] store::StoreScope store_scope(const env::TaskDomain& domain,
                                            const SearchConfig& config,
                                            std::uint64_t seed);

/// Trains the domain's original design (state + architecture) under the
/// funnel's protocol — the comparison baseline. Each seed is one task on
/// `pool`.
[[nodiscard]] rl::SessionResult train_baseline(const env::TaskDomain& domain,
                                               const SearchConfig& config,
                                               std::uint64_t seed,
                                               util::ThreadPool* pool);

/// Cross-cutting knobs of one job. (Namespace-scope rather than nested so
/// it can default-construct in SearchJob's own signatures.)
struct JobOptions {
  /// Probe-based early stopping; null ranks probes by tail reward alone.
  const filter::EarlyStopModel* early_stop_model = nullptr;
  /// Persistent checkpoint store. Must match store_scope(domain, config,
  /// seed) (std::invalid_argument otherwise) and outlive the job.
  store::CandidateStore* store = nullptr;
  util::ThreadPool* pool = nullptr;
  /// Shared baseline slot: lets several jobs (say a state search and an
  /// architecture search over one domain) train the original design once.
  /// Must outlive the job.
  std::optional<rl::SessionResult>* baseline_cache = nullptr;
  /// Restrict execution to a fingerprint sub-range (inclusive bounds on
  /// Fingerprint::hi): candidates outside the range are skipped and counted
  /// in SearchResult::n_out_of_shard. The supervisor grants these sub-range
  /// leases (src/svc/); because membership is by content hash and
  /// per-candidate seeds are fingerprint-derived, any partition of the
  /// space into ranges computes the same records as a single unrestricted
  /// run.
  std::optional<store::ShardPlan::Range> range;
  /// Profiling registry for the hot paths the Observer event stream cannot
  /// see from outside: candidate generation pulls and fingerprinting
  /// (search.generate.pull_seconds / search.generate.fingerprint_seconds),
  /// per-probe training (rl.probe_block.seconds), and — when a store is
  /// attached — store lookup/append (store.*; the job wires the registry
  /// into the store on construction). Pure readout: attaching a registry
  /// never changes rankings or journal bytes. Pair it with an
  /// obs::MetricsObserver on the same registry for the event-stream
  /// counters. Must outlive the job (and the store, which keeps the
  /// pointer).
  obs::MetricsRegistry* metrics = nullptr;
};

class SearchJob {
 public:
  using Options = JobOptions;

  /// `domain`, `source`, `fixed`'s pointees, and everything in `options`
  /// must outlive the job. Throws std::invalid_argument on a degenerate
  /// config or a store whose scope does not match.
  SearchJob(const env::TaskDomain& domain, SearchConfig config,
            std::uint64_t seed, CandidateSource& source, FixedDesign fixed,
            Options options = {});

  /// Observers receive events from the stages run after registration.
  void add_observer(Observer* observer);

  /// The stage the next next_stage() call will execute (kDone when the job
  /// is complete). In streaming mode the per-candidate stages cycle:
  /// after kProbe this is kGenerate again until the stream is spent.
  [[nodiscard]] StageKind next_stage_kind() const;
  [[nodiscard]] bool done() const;

  /// Executes exactly one stage. Returns false once the job is complete
  /// (and on every later call).
  bool next_stage();

  /// Steps until `stop` would be next (or the job completes). Shard
  /// workers use run_until(StageKind::kBaseline) to execute only the
  /// per-candidate stages — in streaming mode that is every remaining
  /// window. Returns the (possibly partial) result.
  const SearchResult& run_until(StageKind stop);

  /// Steps every remaining stage and moves the final result out. The job
  /// is spent afterwards.
  [[nodiscard]] SearchResult run_to_completion();

  /// Continues an interrupted search: rewinds the source to the start of
  /// its stream and runs the whole funnel against the attached store, so
  /// every stage journaled before the interruption is served from the
  /// checkpoint and only the remaining work executes. Requires an attached
  /// store (std::logic_error otherwise) and a fresh job (std::logic_error
  /// after stepping began).
  [[nodiscard]] SearchResult resume();

  /// Result so far: counters and outcomes of completed stages only. The
  /// full result is moved out by run_to_completion().
  [[nodiscard]] const SearchResult& result() const { return result_; }

  [[nodiscard]] store::StoreScope scope() const;

  /// The trained baseline (computing it now if the baseline stage has not
  /// run yet); cached in Options::baseline_cache when provided.
  const rl::SessionResult& original_baseline();

 private:
  /// One candidate carried across window boundaries by the streaming
  /// running selection: everything full training and ranking need once the
  /// window that produced it has been retired.
  struct RetainedCandidate {
    CandidateSpec spec;
    store::Fingerprint fp;
    std::optional<store::OutcomeRecord> cached;
    std::optional<dsl::StateProgram> program;
    CandidateOutcome outcome;
    double score = 0.0;  ///< probe tail score (the selection key)
  };

  void stage_generate();
  void stage_precheck();
  void stage_probe();
  void stage_baseline();
  void stage_select();
  void stage_full_train();
  void stage_rank();

  /// Streaming only: end-of-window fold. Applies the early-stop verdicts
  /// to the window's probes, merges the keepers into the running
  /// top-full_train_top selection (evictions become early-stopped), and
  /// retires the window's per-candidate arrays.
  void fold_window();
  /// Streaming only (select stage): rebuilds the per-candidate arrays from
  /// the retained selection so the batch full-train/rank code runs on them
  /// unchanged.
  void adopt_retained();
  /// The stage following `stage`: linear in batch mode; in streaming mode
  /// kProbe loops back to kGenerate while the stream has candidates left.
  [[nodiscard]] StageKind stage_after(StageKind stage) const;

  void precheck_state(std::size_t i);
  void precheck_arch(std::size_t i, const nn::StateSignature& signature);
  [[nodiscard]] bool in_shard(std::size_t i) const;
  /// Candidate i's program half is available for training (state-kind:
  /// parsed program; arch-kind: always, the fixed program serves).
  [[nodiscard]] bool trainable(std::size_t i) const;
  [[nodiscard]] std::vector<std::size_t> select_survivors();
  void notify_stage_start(StageKind stage);
  void notify_stage_finish(const StageEvent& event);
  void notify_candidate(CandidateEvent event);
  void notify_window_start(std::size_t index, std::size_t first);
  void notify_window_finish(const WindowEvent& event);
  void journal(std::size_t i, store::Stage stage);

  const env::TaskDomain* domain_;
  SearchConfig config_;
  std::uint64_t seed_;
  CandidateSource* source_;
  FixedDesign fixed_;
  Options options_;
  std::vector<Observer*> observers_;
  std::mutex notify_mutex_;

  StageKind next_ = StageKind::kGenerate;
  SearchResult result_;
  std::optional<rl::SessionResult> local_baseline_;

  // Per-candidate working state of the CURRENT window, indexed by window
  // position (batch mode: one window spanning the whole stream, so window
  // position == stream position). A window candidate's stream position
  // lives in outcomes_[i].stream_index.
  std::vector<CandidateSpec> specs_;
  std::vector<store::Fingerprint> fps_;
  std::vector<std::size_t> leader_;
  std::vector<std::optional<store::OutcomeRecord>> cached_;
  std::vector<std::optional<dsl::StateProgram>> programs_;
  std::vector<CandidateOutcome> outcomes_;
  std::vector<std::size_t> probe_set_;
  std::vector<std::size_t> selected_;

  // Streaming state: stream/window progress and the running selection
  // (sorted by score desc, stream position asc; never larger than
  // full_train_top).
  std::size_t generated_total_ = 0;
  bool stream_exhausted_ = false;
  std::size_t window_index_ = 0;
  std::size_t window_base_ = 0;
  std::chrono::steady_clock::time_point window_start_time_{};
  std::vector<RetainedCandidate> retained_;
};

}  // namespace nada::search
