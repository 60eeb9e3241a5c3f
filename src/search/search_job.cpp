#include "search/search_job.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "filter/checks.h"
#include "obs/scoped_timer.h"
#include "rl/agent.h"
#include "rl/batch_probe.h"
#include "util/stats.h"

namespace nada::search {
namespace {

/// Probe curves are compared via their tail: the mean of the last quarter
/// of the early-training rewards.
double probe_score(const std::vector<double>& early_rewards) {
  if (early_rewards.empty()) return -1e9;
  const double score = util::tail_mean(
      early_rewards, std::max<std::size_t>(early_rewards.size() / 4, 4));
  // A diverged probe can leave NaN in the curve; NaN in the ranking
  // comparator would break std::sort's strict weak ordering.
  return std::isnan(score) ? -1e9 : score;
}

filter::DesignRecord make_record(const CandidateOutcome& outcome,
                                 double normalizer) {
  filter::DesignRecord record;
  record.id = outcome.id;
  record.source_text = outcome.source;
  record.early_rewards = outcome.early_rewards;
  const double denom = std::max(std::abs(normalizer), 0.1);
  for (double& r : record.early_rewards) r /= denom;
  record.final_score = probe_score(outcome.early_rewards) / denom;
  return record;
}

/// Snapshot of a candidate's work products for the persistent store.
store::OutcomeRecord to_store_record(const CandidateOutcome& outcome,
                                     const store::Fingerprint& fp,
                                     store::Stage stage) {
  store::OutcomeRecord record;
  record.fingerprint = fp;
  record.stage = stage;
  record.id = outcome.id;
  record.source = outcome.source;
  record.arch = outcome.arch;
  record.compiled = outcome.compiled;
  record.compile_error = outcome.compile_error;
  record.normalized = outcome.normalized;
  record.normalization_error = outcome.normalization_error;
  record.early_probed = outcome.early_probed;
  record.early_rewards = outcome.early_rewards;
  record.fully_trained = outcome.fully_trained;
  record.test_score = outcome.test_score;
  record.emulation_score = outcome.emulation_score;
  record.curve_epochs = outcome.curve_epochs;
  record.median_curve = outcome.median_curve;
  return record;
}

/// Restores the store's work products onto a fresh outcome (everything but
/// the per-run selection verdict).
void apply_store_record(const store::OutcomeRecord& record,
                        CandidateOutcome& outcome) {
  outcome.compiled = record.compiled;
  outcome.compile_error = record.compile_error;
  outcome.normalized = record.normalized;
  outcome.normalization_error = record.normalization_error;
  if (record.stage >= store::Stage::kProbed) {
    outcome.early_probed = record.early_probed;
    outcome.early_rewards = record.early_rewards;
  }
}

/// Single point of truth for the full-training output fields: every path
/// that produces them (fresh session, store record, in-cohort clone) funnels
/// through here, so a new field cannot be silently dropped on just one.
void set_full_train_fields(CandidateOutcome& outcome, bool fully_trained,
                           double test_score, double emulation_score,
                           std::vector<double> median_curve,
                           std::vector<double> curve_epochs) {
  outcome.fully_trained = fully_trained;
  outcome.test_score = test_score;
  outcome.emulation_score = emulation_score;
  outcome.median_curve = std::move(median_curve);
  outcome.curve_epochs = std::move(curve_epochs);
}

void apply_full_train_record(const store::OutcomeRecord& record,
                             CandidateOutcome& outcome) {
  set_full_train_fields(outcome, record.fully_trained, record.test_score,
                        record.emulation_score, record.median_curve,
                        record.curve_epochs);
}

/// Runs fn(i) for every i in [0, n): on the pool in contiguous chunks, a
/// few per worker so the per-task overhead stays small next to
/// microsecond-scale items, or inline without a pool.
void for_each_chunked(util::ThreadPool* pool, std::size_t n,
                      const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t tasks = std::min(n, 4 * pool->size());
  pool->parallel_for(tasks, [&](std::size_t t) {
    for (std::size_t i = t * n / tasks; i < (t + 1) * n / tasks; ++i) fn(i);
  });
}

void copy_probe_result(const CandidateOutcome& from, CandidateOutcome& to) {
  to.early_probed = from.early_probed;
  to.early_rewards = from.early_rewards;
  if (!from.early_probed) to.compile_error = from.compile_error;
}

void copy_full_train_result(const CandidateOutcome& from,
                            CandidateOutcome& to) {
  set_full_train_fields(to, from.fully_trained, from.test_score,
                        from.emulation_score, from.median_curve,
                        from.curve_epochs);
}

}  // namespace

store::StoreScope store_scope(const env::TaskDomain& domain,
                              const SearchConfig& config,
                              std::uint64_t seed) {
  std::ostringstream spec;
  // Simulator-semantics revision: bumped whenever a code change alters the
  // per-candidate results produced for the same (fingerprint, config) —
  // e.g. rev 2 fixed AbrEnv's constructor RNG draw, the eval-prefix bias,
  // and the stall-deadline "completed" lie. Journals written under an
  // older revision are scoped out rather than silently mixed with
  // incomparable fresh results. The execution-only knob window_size never
  // feeds the digest: every window size computes the same records and
  // shares journals. Neither does the NN kernel flavor: scalar and avx2
  // are bit-identical by contract (docs/KERNELS.md).
  spec << "sim_rev=2;" << store::canonical_train_config(config.train)
       << ";seeds=" << config.seeds
       << ";early_epochs=" << config.early_epochs
       << ";norm_threshold=" << config.normalization_threshold
       << ";norm_fuzz=" << config.normalization_fuzz_runs
       << ";pipeline_seed=" << seed;
  // The domain appends the identity of its data (traces, video, simulator
  // parameters): results are only reusable against the same inputs.
  domain.append_scope_spec(spec);
  store::StoreScope scope;
  scope.env = domain.scope_env();
  scope.config_digest = store::fingerprint_text(spec.str()).hex();
  return scope;
}

rl::SessionResult train_baseline(const env::TaskDomain& domain,
                                 const SearchConfig& config,
                                 std::uint64_t seed, util::ThreadPool* pool) {
  const dsl::StateProgram original_state =
      dsl::StateProgram::compile(domain.baseline_state_source());
  rl::SessionConfig sc;
  sc.seeds = config.seeds;
  sc.train = config.train;
  const rl::SessionJob baseline{&original_state, &config.baseline_arch,
                                seed ^ 0x0817b05eULL};
  return rl::run_sessions(domain, {baseline}, sc, pool).front();
}

SearchJob::SearchJob(const env::TaskDomain& domain, SearchConfig config,
                     std::uint64_t seed, CandidateSource& source,
                     FixedDesign fixed, Options options)
    : domain_(&domain), config_(std::move(config)), seed_(seed),
      source_(&source), fixed_(fixed),
      fixed_fps_(FixedFingerprints::of(fixed)), options_(options) {
  validate_config(config_);
  if (options_.range.has_value() &&
      options_.range->lo > options_.range->hi) {
    throw std::invalid_argument(
        "SearchJob: empty fingerprint range [" +
        std::to_string(options_.range->lo) + ", " +
        std::to_string(options_.range->hi) + "]");
  }
  if (options_.store != nullptr &&
      !(options_.store->scope() == scope())) {
    throw std::invalid_argument(
        "SearchJob: store scope (" + options_.store->scope().env + "/" +
        options_.store->scope().config_digest +
        ") does not match this job's scope (" + scope().env + "/" +
        scope().config_digest + ")");
  }
  // One registry covers the whole stack: wiring it into the attached store
  // here means callers pass JobOptions::metrics once and the store's
  // lookup/append timings land in the same snapshot.
  if (options_.metrics != nullptr && options_.store != nullptr) {
    options_.store->set_metrics(options_.metrics);
  }
}

void SearchJob::add_observer(Observer* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

store::StoreScope SearchJob::scope() const {
  return store_scope(*domain_, config_, seed_);
}

const rl::SessionResult& SearchJob::original_baseline() {
  auto* cache = options_.baseline_cache != nullptr ? options_.baseline_cache
                                                   : &local_baseline_;
  if (!cache->has_value()) {
    *cache = train_baseline(*domain_, config_, seed_, options_.pool);
  }
  return **cache;
}

StageKind SearchJob::next_stage_kind() const { return next_; }

bool SearchJob::done() const { return next_ == StageKind::kDone; }

bool SearchJob::next_stage() {
  if (done()) return false;
  const StageKind stage = next_;
  if (stage == StageKind::kGenerate) {
    window_start_time_ = std::chrono::steady_clock::now();
    notify_window_start(window_index_, generated_total_);
  }
  notify_stage_start(stage);
  const auto start = std::chrono::steady_clock::now();
  switch (stage) {
    case StageKind::kGenerate: stage_generate(); break;
    case StageKind::kPrecheck: stage_precheck(); break;
    case StageKind::kProbe: stage_probe(); break;
    case StageKind::kBaseline: stage_baseline(); break;
    case StageKind::kSelect: stage_select(); break;
    case StageKind::kFullTrain: stage_full_train(); break;
    case StageKind::kRank: stage_rank(); break;
    case StageKind::kDone: break;  // unreachable
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  next_ = stage_after(stage);
  notify_stage_finish(StageEvent{stage, seconds});
  return !done();
}

StageKind SearchJob::stage_after(StageKind stage) const {
  if (stage == StageKind::kGenerate && window_.empty()) {
    // The source ran dry at a window boundary: no per-candidate work
    // left, move straight to the cohort-global stages.
    return StageKind::kBaseline;
  }
  if (stage == StageKind::kProbe && !stream_exhausted_ &&
      generated_total_ < config_.num_candidates) {
    return StageKind::kGenerate;  // next window
  }
  return static_cast<StageKind>(static_cast<int>(stage) + 1);
}

const SearchResult& SearchJob::run_until(StageKind stop) {
  while (!done() && next_ != stop) next_stage();
  return result_;
}

SearchResult SearchJob::run_to_completion() {
  while (next_stage()) {
  }
  return std::move(result_);
}

SearchResult SearchJob::resume() {
  if (next_ != StageKind::kGenerate) {
    throw std::logic_error(
        "SearchJob::resume: job already started; resume() needs a fresh job");
  }
  if (options_.store == nullptr) {
    throw std::logic_error("SearchJob::resume: no store attached");
  }
  source_->reset();
  return run_to_completion();
}

void SearchJob::index_leaders() {
  std::unordered_map<store::Fingerprint, std::size_t, store::FingerprintHash>
      first_seen;
  first_seen.reserve(window_.size());
  leader_.resize(window_.size());
  for (std::size_t i = 0; i < window_.size(); ++i) {
    leader_[i] = first_seen.try_emplace(window_[i].fp, i).first->second;
  }
}

bool SearchJob::in_shard(const Candidate& cand) const {
  return !options_.range.has_value() || options_.range->contains(cand.fp);
}

bool SearchJob::trainable(const Candidate& cand) {
  return cand.spec.kind == CandidateKind::kArchitecture ||
         cand.program.has_value() ||
         (cand.cached.has_value() && cand.cached->compiled);
}

void SearchJob::ensure_program(Candidate& cand) {
  if (cand.spec.kind == CandidateKind::kStateProgram &&
      !cand.program.has_value()) {
    cand.program = dsl::StateProgram::compile(cand.spec.source);
  }
}

void SearchJob::notify_stage_start(StageKind stage) {
  std::lock_guard lock(notify_mutex_);
  for (Observer* o : observers_) o->on_stage_start(stage);
}

void SearchJob::notify_stage_finish(const StageEvent& event) {
  std::lock_guard lock(notify_mutex_);
  for (Observer* o : observers_) o->on_stage_finish(event);
}

void SearchJob::notify_candidate(CandidateEvent event) {
  std::lock_guard lock(notify_mutex_);
  for (Observer* o : observers_) o->on_candidate(event);
}

void SearchJob::notify_window_start(std::size_t index, std::size_t first) {
  std::lock_guard lock(notify_mutex_);
  for (Observer* o : observers_) o->on_window_start(index, first);
}

void SearchJob::notify_window_finish(const WindowEvent& event) {
  std::lock_guard lock(notify_mutex_);
  for (Observer* o : observers_) o->on_window_finish(event);
}

void SearchJob::journal(const Candidate& cand, store::Stage stage) {
  if (options_.store != nullptr) {
    options_.store->put(to_store_record(cand.outcome, cand.fp, stage));
  }
}

void SearchJob::stage_generate() {
  // Pull the next window from the source: window_size candidates, or the
  // whole stream in batch mode. A short pull marks the stream exhausted.
  window_base_ = generated_total_;
  const std::size_t window =
      config_.streaming() ? config_.window_size : config_.num_candidates;
  const std::size_t ask =
      std::min(window, config_.num_candidates - generated_total_);
  std::vector<CandidateSpec> specs;
  {
    obs::ScopedTimer timer(
        obs::maybe_histogram(options_.metrics, "search.generate.pull_seconds"));
    specs = source_->generate(ask);
  }
  if (specs.size() < ask) stream_exhausted_ = true;
  const std::size_t n = specs.size();
  generated_total_ += n;
  result_.n_total += n;
  if (n == 0) {
    // Empty window (the source ran dry exactly at a boundary): nothing to
    // check or probe — close the window here; stage_after() skips ahead.
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      window_start_time_)
            .count();
    notify_window_finish(WindowEvent{window_index_, window_base_, 0,
                                     selection_.size(), seconds});
    ++window_index_;
    return;
  }
  // The last fold emptied the window; its capacity is reused.
  window_.resize(n);
  for (std::size_t i = 0; i < n; ++i) window_[i].spec = std::move(specs[i]);
  // Fingerprints fill per-candidate slots on the pool; everything that
  // follows (leaders, events, journal writes) stays on this thread in
  // stream order.
  {
    obs::ScopedTimer timer(obs::maybe_histogram(
        options_.metrics, "search.generate.fingerprint_seconds"));
    for_each_chunked(options_.pool, n, [&](std::size_t i) {
      Candidate& cand = window_[i];
      cand.fp = fingerprint_of(cand.spec, fixed_fps_, &cand.parsed);
    });
  }
  index_leaders();
  for (std::size_t i = 0; i < n; ++i) {
    Candidate& cand = window_[i];
    CandidateOutcome& outcome = cand.outcome;
    outcome.id = cand.spec.id;
    outcome.stream_index = window_base_ + i;
    outcome.source = cand.spec.source;
    if (cand.spec.kind == CandidateKind::kArchitecture) {
      outcome.arch = cand.spec.arch;
    }
    if (!observers_.empty()) {
      notify_candidate(CandidateEvent{CandidateEventType::kEntered,
                                      StageKind::kGenerate,
                                      outcome.stream_index, outcome.id, ""});
    }
    if (!in_shard(cand)) {
      ++result_.n_out_of_shard;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kOutOfShard,
                                        StageKind::kGenerate,
                                        outcome.stream_index, outcome.id, ""});
      }
    }
  }
}

void SearchJob::precheck_arch(Candidate& cand,
                              const nn::StateSignature& signature) {
  CandidateOutcome& outcome = cand.outcome;
  if (options_.store != nullptr) cand.cached = options_.store->lookup(cand.fp);
  if (cand.cached.has_value()) {
    apply_store_record(*cand.cached, outcome);
    return;
  }
  const auto check = filter::arch_compilation_check(
      *cand.spec.arch, signature, domain_->num_actions());
  outcome.compiled = check.passed;
  outcome.compile_error = check.reason;
  // The normalization check does not apply to architectures (§2.2).
  outcome.normalized = check.passed;
  journal(cand, store::Stage::kChecked);
}

void SearchJob::precheck_state(Candidate& cand) {
  // NOTE: runs on pool threads; journaling happens on the stepping thread
  // afterwards (stage_precheck), in stream order, so the journal record for
  // a fingerprint shared by in-window clones always carries the leader's id
  // regardless of thread timing.
  CandidateOutcome& outcome = cand.outcome;
  const auto compile = filter::compilation_check(
      cand.spec.source, domain_->catalog(), &cand.program);
  outcome.compiled = compile.passed;
  outcome.compile_error = compile.reason;
  if (compile.passed) {
    const auto norm = filter::normalization_check(
        *cand.program, domain_->catalog(), config_.normalization_threshold,
        config_.normalization_fuzz_runs,
        seed_ ^ (cand.fp.lo * 0x9e3779b9ULL));
    outcome.normalized = norm.passed;
    outcome.normalization_error = norm.reason;
  }
}

void SearchJob::stage_precheck() {
  // Architecture candidates check serially in stream order with the store
  // lookup interleaved — a clone's lookup sees the record its leader just
  // journaled (the historical arch-path behaviour, preserved for
  // bit-identical journals and counters). The fixed program's input
  // signature is derived once, not per candidate.
  std::optional<nn::StateSignature> signature;
  for (Candidate& cand : window_) {
    if (in_shard(cand) && cand.spec.kind == CandidateKind::kArchitecture) {
      if (!signature.has_value()) {
        signature = rl::derive_signature(*fixed_.state, domain_->catalog());
      }
      precheck_arch(cand, *signature);
    }
  }
  // State-program candidates look up first (all lookups precede any check,
  // so in-window clones read as misses and dedup through the leader table).
  // A hit serves its recorded verdict right here without compiling the
  // source: the probe or full-training stage compiles the program if it
  // ever trains the candidate. Only misses go to the pool, to compile +
  // fuzz — cheap and embarrassingly parallel.
  std::vector<Candidate*> misses;
  for (Candidate& cand : window_) {
    if (!in_shard(cand) || cand.spec.kind != CandidateKind::kStateProgram) {
      continue;
    }
    if (options_.store != nullptr) {
      cand.cached = options_.store->lookup(cand.fp);
    }
    if (cand.cached.has_value() && cand.cached->compiled &&
        cand.cached->stage < store::Stage::kTrained && !cand.parsed) {
      // The record says this source compiles, and a later stage may train
      // it, but the source does not parse: a fingerprint collision (or
      // foreign journal). Treat it as a genuine miss so the candidate is
      // evaluated on its own merits.
      cand.cached.reset();
    }
    if (cand.cached.has_value()) {
      apply_store_record(*cand.cached, cand.outcome);
    } else {
      misses.push_back(&cand);
    }
  }
  auto check = [&](std::size_t k) { precheck_state(*misses[k]); };
  if (options_.pool != nullptr) {
    options_.pool->parallel_for(misses.size(), check);
  } else {
    for (std::size_t k = 0; k < misses.size(); ++k) check(k);
  }
  // Journal the fresh verdicts in stream order from this thread:
  // deterministic journal bytes whatever the pool's scheduling.
  for (const Candidate* cand : misses) journal(*cand, store::Stage::kChecked);
  // Accounting and events, on the stepping thread in stream order.
  for (const Candidate& cand : window_) {
    if (!in_shard(cand)) continue;
    const CandidateOutcome& outcome = cand.outcome;
    if (cand.cached.has_value()) {
      ++result_.n_precheck_cache_hits;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{
            CandidateEventType::kCacheHit, StageKind::kPrecheck,
            outcome.stream_index, outcome.id,
            store::stage_name(cand.cached->stage)});
      }
    } else if (!outcome.compiled) {
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kFailed,
                                        StageKind::kPrecheck,
                                        outcome.stream_index, outcome.id,
                                        outcome.compile_error});
      }
    } else if (!outcome.normalized) {
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kFailed,
                                        StageKind::kPrecheck,
                                        outcome.stream_index, outcome.id,
                                        outcome.normalization_error});
      }
    }
  }
}

void SearchJob::stage_probe() {
  const std::size_t n = window_.size();
  std::vector<std::size_t> probe_set;
  for (std::size_t i = 0; i < n; ++i) {
    const Candidate& cand = window_[i];
    const CandidateOutcome& outcome = cand.outcome;
    if (outcome.compiled) ++result_.n_compiled;
    if (!outcome.compiled || !outcome.normalized) continue;
    ++result_.n_normalized;
    if (cand.cached.has_value() &&
        cand.cached->stage >= store::Stage::kProbed) {
      ++result_.n_probe_cache_hits;  // probe verdict already applied
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kCacheHit,
                                        StageKind::kProbe,
                                        outcome.stream_index, outcome.id,
                                        store::stage_name(cand.cached->stage)});
      }
    } else if (leader_[i] != i) {
      // In-window clone: copies the leader's probe result after the stage.
    } else if (trainable(cand)) {
      probe_set.push_back(i);
    }
  }
  rl::TrainConfig probe_config = config_.train;
  probe_config.epochs = config_.early_epochs;
  probe_config.evaluate_checkpoints = false;
  std::vector<rl::ProbeJob> probe_jobs;
  probe_jobs.reserve(probe_set.size());
  for (std::size_t i : probe_set) {
    Candidate& cand = window_[i];
    ensure_program(cand);
    const bool is_state = cand.spec.kind == CandidateKind::kStateProgram;
    probe_jobs.push_back(
        rl::ProbeJob{is_state ? &*cand.program : fixed_.state,
                     is_state ? fixed_.arch : &*cand.outcome.arch,
                     probe_seed(cand.spec, seed_, cand.fp)});
  }
  // One engine task per probe on the pool; results are applied, journaled,
  // and announced afterwards on this thread, in stream order.
  const rl::BatchProbeTrainer trainer(
      *domain_,
      rl::BatchProbeConfig{.train = probe_config, .metrics = options_.metrics});
  const auto probe_results = trainer.train(probe_jobs, options_.pool);
  for (std::size_t k = 0; k < probe_set.size(); ++k) {
    Candidate& cand = window_[probe_set[k]];
    CandidateOutcome& outcome = cand.outcome;
    const rl::TrainResult& probe_result = probe_results[k];
    if (!probe_result.failed) {
      outcome.early_probed = true;
      outcome.early_rewards = probe_result.train_rewards;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kProbed,
                                        StageKind::kProbe,
                                        outcome.stream_index, outcome.id, ""});
      }
    } else {
      // Blew up only under real training inputs; treat as compile-stage
      // failure discovered late.
      outcome.compile_error = probe_result.error;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kFailed,
                                        StageKind::kProbe,
                                        outcome.stream_index, outcome.id,
                                        probe_result.error});
      }
    }
    journal(cand, store::Stage::kProbed);
  }
  result_.n_probes_run += probe_set.size();
  for (std::size_t i = 0; i < n; ++i) {
    CandidateOutcome& outcome = window_[i].outcome;
    if (leader_[i] != i && outcome.compiled && outcome.normalized &&
        !outcome.early_probed) {
      copy_probe_result(window_[leader_[i]].outcome, outcome);
    }
  }
  fold_window();
}

void SearchJob::fold_window() {
  // End-of-window fold: this window's probes meet the running selection,
  // then the window is retired. Inserting by (probe score desc, stream
  // position asc) and evicting past full_train_top leaves, after the last
  // window, exactly the top full_train_top of every kept probe in the
  // stream — whatever the window size.
  const std::size_t n = window_.size();
  // What leaves the selection (unprobed, stopped or evicted) moves to its
  // stream position when the result keeps every outcome (batch mode), and
  // is dropped otherwise.
  const bool keep_all = !config_.streaming();
  if (keep_all) released_.resize(generated_total_);
  const auto release = [&](CandidateOutcome&& outcome) {
    if (keep_all) released_[outcome.stream_index] = std::move(outcome);
  };
  const auto stop = [&](CandidateOutcome&& outcome) {
    ++result_.n_early_stopped;
    if (!observers_.empty()) {
      notify_candidate(CandidateEvent{CandidateEventType::kEarlyStopped,
                                      StageKind::kProbe, outcome.stream_index,
                                      outcome.id, ""});
    }
    outcome.early_stopped = true;
    release(std::move(outcome));
  };
  const auto by_rank = [](const Candidate& a, const Candidate& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.outcome.stream_index < b.outcome.stream_index;
  };
  for (Candidate& cand : window_) {
    if (!cand.outcome.early_probed) {
      release(std::move(cand.outcome));
      continue;
    }
    if (options_.early_stop_model != nullptr) {
      // The model normalizes probe curves by the baseline score, so the
      // baseline trains lazily at the first fold that needs it. Its seed
      // stream is independent of the candidates', so training it before
      // the kBaseline stage cannot change any result.
      const double normalizer = original_baseline().test_score;
      if (!options_.early_stop_model->keep(
              make_record(cand.outcome, normalizer))) {
        stop(std::move(cand.outcome));
        continue;
      }
    }
    cand.score = probe_score(cand.outcome.early_rewards);
    selection_.insert(
        std::upper_bound(selection_.begin(), selection_.end(), cand, by_rank),
        std::move(cand));
    if (selection_.size() > config_.full_train_top) {
      stop(std::move(selection_.back().outcome));
      selection_.pop_back();
    }
  }
  // Retire the window. clear() keeps the capacity, so a streaming job
  // allocates its window once: peak memory stays O(window_size).
  window_.clear();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    window_start_time_)
          .count();
  notify_window_finish(
      WindowEvent{window_index_, window_base_, n, selection_.size(), seconds});
  ++window_index_;
}

void SearchJob::stage_baseline() {
  result_.original = original_baseline();
  result_.original_score = result_.original.test_score;
}

void SearchJob::stage_select() {
  // The folds already selected: the running selection is the full-training
  // cohort. Its leader table covers the cohort alone, so a retained clone
  // whose leader the early-stop model stopped leads itself.
  window_ = std::exchange(selection_, {});
  index_leaders();
}

void SearchJob::stage_full_train() {
  // Cohort members whose full run is journaled reuse it outright; a clone
  // waits for its leader, which sorts ahead of it in the cohort (equal
  // probe score, earlier stream position).
  std::vector<std::size_t> to_train;
  std::vector<std::size_t> clones;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    Candidate& cand = window_[i];
    if (cand.cached.has_value() &&
        cand.cached->stage >= store::Stage::kTrained) {
      apply_full_train_record(*cand.cached, cand.outcome);
      ++result_.n_full_cache_hits;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kCacheHit,
                                        StageKind::kFullTrain,
                                        cand.outcome.stream_index,
                                        cand.outcome.id,
                                        store::stage_name(cand.cached->stage)});
      }
    } else if (leader_[i] != i) {
      clones.push_back(i);
    } else if (trainable(cand)) {
      to_train.push_back(i);
    }
  }
  rl::SessionConfig session_config;
  session_config.seeds = config_.seeds;
  session_config.train = config_.train;
  std::vector<rl::SessionJob> jobs;
  jobs.reserve(to_train.size());
  for (std::size_t i : to_train) {
    Candidate& cand = window_[i];
    ensure_program(cand);
    const bool is_state = cand.spec.kind == CandidateKind::kStateProgram;
    jobs.push_back(
        rl::SessionJob{is_state ? &*cand.program : fixed_.state,
                       is_state ? fixed_.arch : &*cand.outcome.arch,
                       full_train_seed(cand.spec, seed_, cand.fp)});
  }
  auto sessions =
      rl::run_sessions(*domain_, jobs, session_config, options_.pool);
  for (std::size_t k = 0; k < to_train.size(); ++k) {
    rl::SessionResult& session = sessions[k];
    set_full_train_fields(window_[to_train[k]].outcome, !session.failed,
                          session.test_score, session.emulation_score,
                          std::move(session.median_curve),
                          std::move(session.curve_epochs));
  }
  result_.n_full_trains_run = to_train.size();
  for (std::size_t i : clones) {
    copy_full_train_result(window_[leader_[i]].outcome, window_[i].outcome);
  }
  for (std::size_t i : to_train) {
    const CandidateOutcome& outcome = window_[i].outcome;
    journal(window_[i], store::Stage::kTrained);
    if (!observers_.empty()) {
      notify_candidate(CandidateEvent{
          CandidateEventType::kTrained, StageKind::kFullTrain,
          outcome.stream_index, outcome.id,
          outcome.fully_trained
              ? "test_score=" + std::to_string(outcome.test_score)
              : "every session failed"});
    }
  }
}

void SearchJob::stage_rank() {
  // The cohort leaves the window: in batch mode back into place at its
  // stream positions among every other outcome, in streaming mode alone,
  // in selection order.
  if (config_.streaming()) {
    result_.outcomes.reserve(window_.size());
    for (Candidate& cand : window_) {
      result_.outcomes.push_back(std::move(cand.outcome));
    }
  } else {
    for (Candidate& cand : window_) {
      released_[cand.outcome.stream_index] = std::move(cand.outcome);
    }
    result_.outcomes = std::move(released_);
  }
  window_.clear();
  // The best-candidate tie-break is by stream position, explicitly: in
  // batch mode the scan order makes the explicit clause a no-op, but in
  // streaming mode the outcomes are in selection (probe-score) order, so
  // the clause is what keeps both modes picking the identical winner.
  std::size_t best_stream = SIZE_MAX;
  for (std::size_t i = 0; i < result_.outcomes.size(); ++i) {
    const CandidateOutcome& outcome = result_.outcomes[i];
    if (!outcome.fully_trained) continue;
    ++result_.n_fully_trained;
    const bool tie_earlier = result_.has_best() &&
                             outcome.test_score == result_.best_score &&
                             outcome.stream_index < best_stream;
    if (outcome.test_score > result_.best_score || tie_earlier) {
      result_.best_score = outcome.test_score;
      result_.best_index = i;
      best_stream = outcome.stream_index;
    }
  }
}

}  // namespace nada::search
