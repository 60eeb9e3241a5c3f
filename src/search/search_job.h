// SearchJob: the NADA funnel (Figure 1) as an incrementally steppable job.
//
// One job pulls one candidate stream through generate -> pre-check ->
// probe -> baseline -> select -> full-train -> rank. The original design's
// baseline trains in the full-training stage, as one more job beside the
// cohort, unless it is known by then (the baseline stage serves a known
// one). It is the funnel's one driver; a job
//
//   * is steppable: next_stage() executes exactly one stage, so callers
//     interleave their own work, stop early (range workers run only
//     through the probe stage), or drive progress UIs,
//   * streams events: Observers see every stage transition (with timings),
//     every candidate milestone, and every window as it happens,
//   * is kind-unified: the stream may hold state-program and architecture
//     candidates in any mix (CandidateSpec), one funnel code path,
//   * folds resume in: resume() rewinds the source and re-runs against the
//     attached store, serving every journaled stage from the checkpoint.
//
// Candidates are PULLED from the CandidateSource in windows. The job pulls
// a window, pre-checks and probes it (journal writes and candidate events
// included), then folds it into a running selection — the top
// full_train_top probes by tail reward that pass the early-stop model —
// and retires the window's specs, programs, and probe caches. The
// per-candidate stages cycle generate -> precheck -> probe until the
// stream is spent; then the cohort-global stages run once, the select
// stage handing the running selection to full training. The fold is the
// funnel's only selection. SearchConfig::window_size sets the window and
// with it what the result keeps:
//
//   batch (window_size == 0, the default): one window spans the whole
//   stream, and every candidate's outcome is kept and returned —
//   SearchResult::outcomes[i] is stream position i. Peak memory is
//   O(num_candidates).
//
//   streaming (window_size >= 1): windows of window_size candidates. Peak
//   memory is O(2·window_size + full_train_top): the window being screened,
//   the next one when it was pulled ahead (below), and the running
//   selection. SearchResult::outcomes holds only the full-training cohort
//   (stream positions travel in CandidateOutcome::stream_index).
//
// Pull contract: every window asks the source for
// min(window size, num_candidates - candidates pulled so far), and no pull
// follows a short one. A job with a pool looks one window ahead: once
// window k's pull came back full and candidates remain, it asks for window
// k+1 on a puller thread of its own (started at the first look-ahead)
// while window k is screened, and window k+1's generate stage takes that
// result instead of pulling. The first window, and every window of a job
// without a pool, is pulled inline on the stepping thread. Either way the
// source sees the same calls in the same order, never two at once. A pull
// that throws surfaces from the next_stage() that runs its window's
// generate stage (next_stage_kind() stays kGenerate). The destructor waits
// for a pull in flight, so a job abandoned mid-stream may have pulled one
// window it never screens.
//
// Determinism contract: per-candidate seeds are fingerprint-derived and
// every journal write and candidate event happens on the stepping thread in
// stream order, so a job's results and journal bytes do not depend on its
// thread pool (tests/integration_test.cpp pins pool-less vs pooled journal
// bytes). Every window size produces the same rankings and the same store
// journal records for the same seeds — where the work runs cannot change
// what it computes; only the journal's line ORDER differs (windows
// interleave check/probe records). tests/stream_test.cpp pins
// batch-vs-streaming equivalence for ABR and CC, serial and split across
// fingerprint-range workers.
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
#include <future>
#include <memory>
#include <optional>
#include <string_view>
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
/// `pool`. A SearchJob's full-training stage computes the same result
/// beside its cohort.
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
  /// Runs the fingerprint pass (each window's fingerprints and state
  /// candidates' store lookups, the stepping thread claiming chunks beside
  /// the workers, so the pass never waits for a busy worker), and the
  /// pre-check, probe and training passes. A streaming job with a pool also
  /// pulls each window after the first one window ahead, on one puller
  /// thread of its own (the pull contract above); without a pool the job
  /// starts no thread and runs the same passes inline. Results and journal
  /// bytes do not depend on it.
  util::ThreadPool* pool = nullptr;
  /// Shared baseline slot: lets several jobs (say a state search and an
  /// architecture search over one domain) train the original design once.
  /// A filled slot is served as is; an empty one is filled by the job that
  /// first needs the baseline (its full-training stage, or a fold's
  /// early-stop model). Must outlive the job.
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
  /// see from outside: candidate generation pulls, the stepping thread's
  /// wait for them, and the fingerprint and lookup pass
  /// (search.generate.pull_seconds / .pull_wait_seconds /
  /// .fingerprint_seconds),
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
  /// is complete). The per-candidate stages cycle: after kProbe this is
  /// kGenerate again until the stream is spent.
  [[nodiscard]] StageKind next_stage_kind() const;
  [[nodiscard]] bool done() const;

  /// Executes exactly one stage. Returns false once the job is complete
  /// (and on every later call).
  bool next_stage();

  /// Steps until `stop` would be next (or the job completes). Shard
  /// workers use run_until(StageKind::kBaseline) to execute only the
  /// per-candidate stages of every remaining window; they never train the
  /// baseline. Returns the (possibly partial) result: its baseline
  /// (original, original_score) is final once kFullTrain has run.
  const SearchResult& run_until(StageKind stop);

  /// Steps every remaining stage and moves the final result out. The job
  /// is spent afterwards.
  [[nodiscard]] SearchResult run_to_completion();

  /// Continues an interrupted search: rewinds the source to the start of
  /// its stream and runs the whole funnel against the attached store, so
  /// every stage journaled before the interruption is served from the
  /// checkpoint and only the remaining work executes. Requires an attached
  /// store (std::logic_error otherwise) and a fresh job (std::logic_error
  /// once any stage has run). No other live job may pull from the source:
  /// one abandoned mid-stream may still be pulling a window ahead until it
  /// is destroyed.
  [[nodiscard]] SearchResult resume();

  /// Result so far: counters and outcomes of completed stages only. The
  /// full result is moved out by run_to_completion().
  [[nodiscard]] const SearchResult& result() const { return result_; }

  [[nodiscard]] store::StoreScope scope() const;

  /// The trained baseline, training it now (alone, through
  /// train_baseline) unless it is known; cached in Options::baseline_cache
  /// when provided. A job that runs to completion never needs this: its
  /// full-training stage trains an unknown baseline beside the cohort.
  const rl::SessionResult& original_baseline();

 private:
  /// One candidate from pull to full training: a window slot, then — if
  /// the fold keeps it — a member of the running selection and at last of
  /// the full-training cohort. Its fingerprint is outcome.fingerprint.
  struct Candidate {
    /// The pulled spec. Its id and source move into the outcome in the
    /// fingerprint pass; the kind (and an architecture) stay.
    CandidateSpec spec;
    /// The store hit: a state candidate's from the fingerprint pass (which
    /// frees the hit's id and source), an architecture's from pre-check.
    /// Its check and probe results move into the outcome; later stages read
    /// its stage, compiled flag and training results.
    std::optional<store::OutcomeRecord> cached;
    /// Empty until a stage compiles it: a probe the store served left none.
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

  /// Options::baseline_cache when provided, else the job's own slot.
  [[nodiscard]] std::optional<rl::SessionResult>& baseline_slot();
  /// Copies the known baseline into the result.
  void serve_baseline();

  /// End-of-window fold, the funnel's one selection: applies the
  /// early-stop verdicts to the window's probes, merges the keepers into
  /// the running top-full_train_top selection (evictions become
  /// early-stopped), and retires the window.
  void fold_window();
  /// The stage following `stage`: linear, except that kProbe loops back to
  /// kGenerate while the stream has candidates left.
  [[nodiscard]] StageKind stage_after(StageKind stage) const;
  /// What the next window asks the source for: window_size candidates (the
  /// whole stream in batch mode), capped by what num_candidates leaves.
  [[nodiscard]] std::size_t next_ask() const;
  /// Recomputes leader_ over window_.
  void index_leaders();

  /// One slot of the generate stage's pooled pass, for the candidate at
  /// window position `position`: its fingerprint, stream position, id and
  /// source, and for an in-shard state candidate its store hit, applied to
  /// the outcome (a compiled record for a source that does not parse reads
  /// as a miss).
  void fill_slot(Candidate& cand, std::size_t position);
  /// Compile + normalization check of a state candidate the store missed.
  void precheck_state(Candidate& cand);
  void precheck_arch(Candidate& cand, const nn::StateSignature& signature);
  [[nodiscard]] bool in_shard(const Candidate& cand) const;
  /// The candidate's program half can be trained (state-kind: it compiled,
  /// as a fresh program or per a usable store record; arch-kind: always,
  /// the fixed program serves).
  [[nodiscard]] static bool trainable(const Candidate& cand);
  /// Compiles a trainable state candidate's program unless it has one. A
  /// store hit's pre-check verdict is served without compiling, so the
  /// program is built only once a stage is about to train the candidate.
  static void ensure_program(Candidate& cand);
  /// Fires a candidate event at every observer; returns at once when there
  /// are none.
  void announce(CandidateEventType type, StageKind stage,
                const CandidateOutcome& outcome,
                std::string_view detail = {}) const;
  /// Sets the outcome's stage and journals the outcome as its store record.
  void journal(Candidate& cand, store::Stage stage);

  const env::TaskDomain* domain_;
  SearchConfig config_;
  std::uint64_t seed_;
  CandidateSource* source_;
  FixedDesign fixed_;
  FixedFingerprints fixed_fps_;  ///< fixed_'s fingerprints, hashed once
  Options options_;
  std::vector<Observer*> observers_;

  StageKind next_ = StageKind::kGenerate;
  bool started_ = false;  ///< a stage has run: resume() refuses the job
  SearchResult result_;
  std::optional<rl::SessionResult> local_baseline_;

  /// The current window, by window position; from the select stage on, the
  /// full-training cohort in selection order.
  std::vector<Candidate> window_;
  /// In-window dedup: leader_[i] is the first position in window_ holding
  /// window_[i]'s fingerprint. Clones copy their leader's results instead
  /// of re-running them (content-derived seeds make them identical anyway).
  std::vector<std::size_t> leader_;
  /// The running selection: sorted by score desc, stream position asc;
  /// never larger than full_train_top.
  std::vector<Candidate> selection_;
  /// Batch mode: every outcome that left the selection, by stream
  /// position. The cohort moves back into place at rank.
  std::vector<CandidateOutcome> released_;

  std::size_t generated_total_ = 0;
  bool stream_exhausted_ = false;
  std::size_t window_index_ = 0;
  std::size_t window_base_ = 0;
  std::chrono::steady_clock::time_point window_start_time_{};

  /// The next window's specs while they are pulled ahead; invalid when the
  /// next window is pulled inline.
  std::future<std::vector<CandidateSpec>> ahead_;
  /// The puller thread, started at the first look-ahead. Declared last so
  /// that it is destroyed first: its destructor waits for a pull in flight.
  std::optional<util::ThreadPool> puller_;
};

}  // namespace nada::search
