#include "search/search_job.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <sstream>
#include <unordered_map>

#include "filter/checks.h"
#include "nn/mat_kernels.h"
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
/// that produces them (fresh session, store record, in-batch clone) funnels
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

/// In-batch dedup: index of the first candidate with each fingerprint.
/// Clones copy their leader's probe/training results instead of re-running
/// them (content-derived seeds make the results identical anyway).
std::vector<std::size_t> leaders_by_fingerprint(
    const std::vector<store::Fingerprint>& fps) {
  std::unordered_map<store::Fingerprint, std::size_t, store::FingerprintHash>
      first_seen;
  first_seen.reserve(fps.size());
  std::vector<std::size_t> leader(fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) {
    leader[i] = first_seen.try_emplace(fps[i], i).first->second;
  }
  return leader;
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

void apply_session_results(std::vector<CandidateOutcome>& outcomes,
                           const std::vector<std::size_t>& selected,
                           const std::vector<rl::SessionResult>& sessions) {
  for (std::size_t k = 0; k < selected.size(); ++k) {
    const rl::SessionResult& session = sessions[k];
    set_full_train_fields(outcomes[selected[k]], !session.failed,
                          session.test_score, session.emulation_score,
                          session.median_curve, session.curve_epochs);
  }
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
  // shares journals. The NN kernel flavor is such a knob for scalar and
  // avx2 (bit-identical by contract) but NOT for fma, whose fused rounding
  // changes result bits — runs under the fma flavor carry a kernel=fma
  // token so their journals never alias scalar/avx2 ones.
  spec << "sim_rev=2;";
  if (nn::kernel_flavor() == nn::KernelFlavor::kFma) spec << "kernel=fma;";
  spec << store::canonical_train_config(config.train)
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
  if (config_.streaming() && stage == StageKind::kGenerate) {
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
  if (config_.streaming()) {
    if (stage == StageKind::kGenerate && specs_.empty()) {
      // The source ran dry at a window boundary: no per-candidate work
      // left, move straight to the cohort-global stages.
      return StageKind::kBaseline;
    }
    if (stage == StageKind::kProbe && !stream_exhausted_ &&
        generated_total_ < config_.num_candidates) {
      return StageKind::kGenerate;  // next rolling window
    }
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

bool SearchJob::in_shard(std::size_t i) const {
  return !options_.range.has_value() || options_.range->contains(fps_[i]);
}

bool SearchJob::trainable(std::size_t i) const {
  return specs_[i].kind == CandidateKind::kArchitecture ||
         programs_[i].has_value() ||
         (cached_[i].has_value() && cached_[i]->compiled);
}

void SearchJob::ensure_program(std::size_t i) {
  if (specs_[i].kind == CandidateKind::kStateProgram &&
      !programs_[i].has_value()) {
    programs_[i] =
        dsl::StateProgram::compile(specs_[i].source, &domain_->catalog());
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

void SearchJob::journal(std::size_t i, store::Stage stage) {
  if (options_.store != nullptr) {
    options_.store->put(to_store_record(outcomes_[i], fps_[i], stage));
  }
}

void SearchJob::stage_generate() {
  // Pull the next window from the source: the whole stream in batch mode,
  // window_size candidates in streaming mode. A short pull marks the
  // stream exhausted.
  window_base_ = generated_total_;
  const std::size_t ask =
      config_.streaming()
          ? std::min(config_.window_size,
                     config_.num_candidates - generated_total_)
          : config_.num_candidates;
  {
    obs::ScopedTimer timer(
        obs::maybe_histogram(options_.metrics, "search.generate.pull_seconds"));
    specs_ = source_->generate(ask);
  }
  if (specs_.size() < ask) stream_exhausted_ = true;
  generated_total_ += specs_.size();
  const std::size_t n = specs_.size();
  result_.n_total += n;
  if (config_.streaming() && n == 0) {
    // Empty window (the source ran dry exactly at a boundary): nothing to
    // check or probe — close the window here; stage_after() skips ahead.
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      window_start_time_)
            .count();
    notify_window_finish(WindowEvent{window_index_, window_base_, 0,
                                     retained_.size(), seconds});
    ++window_index_;
    return;
  }
  // Fingerprints fill per-candidate slots on the pool; everything that
  // follows (leaders, events, journal writes) stays on this thread in
  // stream order.
  fps_.resize(n);
  parsed_.assign(n, 0);
  {
    obs::ScopedTimer timer(obs::maybe_histogram(
        options_.metrics, "search.generate.fingerprint_seconds"));
    for_each_chunked(options_.pool, n, [&](std::size_t i) {
      bool parsed = false;
      fps_[i] = fingerprint_of(specs_[i], fixed_fps_, &parsed);
      parsed_[i] = parsed ? 1 : 0;
    });
  }
  leader_ = leaders_by_fingerprint(fps_);
  // clear-then-resize (not assign): resets the slots left from the
  // previous window without copying, which the move-only programs forbid.
  cached_.clear();
  cached_.resize(n);
  programs_.clear();
  programs_.resize(n);
  outcomes_.clear();
  outcomes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    outcomes_[i].id = specs_[i].id;
    outcomes_[i].stream_index = window_base_ + i;
    outcomes_[i].source = specs_[i].source;
    if (specs_[i].kind == CandidateKind::kArchitecture) {
      outcomes_[i].arch = specs_[i].arch;
    }
    if (!observers_.empty()) {
      notify_candidate(CandidateEvent{CandidateEventType::kEntered,
                                      StageKind::kGenerate, outcomes_[i].stream_index,
                                      specs_[i].id, ""});
    }
    if (!in_shard(i)) {
      ++result_.n_out_of_shard;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kOutOfShard,
                                        StageKind::kGenerate, outcomes_[i].stream_index,
                                        specs_[i].id, ""});
      }
    }
  }
}

void SearchJob::precheck_arch(std::size_t i,
                              const nn::StateSignature& signature) {
  CandidateOutcome& outcome = outcomes_[i];
  if (options_.store != nullptr) cached_[i] = options_.store->lookup(fps_[i]);
  if (cached_[i].has_value()) {
    apply_store_record(*cached_[i], outcome);
    return;
  }
  const auto check = filter::arch_compilation_check(*specs_[i].arch, signature,
                                                    domain_->num_actions());
  outcome.compiled = check.passed;
  outcome.compile_error = check.reason;
  // The normalization check does not apply to architectures (§2.2).
  outcome.normalized = check.passed;
  journal(i, store::Stage::kChecked);
}

void SearchJob::precheck_state(std::size_t i) {
  // NOTE: runs on pool threads; journaling happens on the stepping thread
  // afterwards (stage_precheck), in stream order, so the journal record for
  // a fingerprint shared by in-batch clones always carries the leader's id
  // regardless of thread timing.
  CandidateOutcome& outcome = outcomes_[i];
  const auto compile = filter::compilation_check(
      specs_[i].source, domain_->catalog(), &programs_[i]);
  outcome.compiled = compile.passed;
  outcome.compile_error = compile.reason;
  if (compile.passed) {
    const auto norm = filter::normalization_check(
        *programs_[i], domain_->catalog(), config_.normalization_threshold,
        config_.normalization_fuzz_runs,
        seed_ ^ (fps_[i].lo * 0x9e3779b9ULL));
    outcome.normalized = norm.passed;
    outcome.normalization_error = norm.reason;
  }
}

void SearchJob::stage_precheck() {
  const std::size_t n = specs_.size();
  // Architecture candidates check serially in stream order with the store
  // lookup interleaved — a clone's lookup sees the record its leader just
  // journaled (the historical arch-path behaviour, preserved for
  // bit-identical journals and counters). The fixed program's input
  // signature is derived once, not per candidate.
  std::optional<nn::StateSignature> signature;
  for (std::size_t i = 0; i < n; ++i) {
    if (in_shard(i) && specs_[i].kind == CandidateKind::kArchitecture) {
      if (!signature.has_value()) {
        signature = rl::derive_signature(*fixed_.state, domain_->catalog());
      }
      precheck_arch(i, *signature);
    }
  }
  // State-program candidates look up first (all lookups precede any check,
  // so in-batch clones read as misses and dedup through the leader table).
  // A hit serves its recorded verdict right here without compiling the
  // source: the probe or full-training stage compiles the program if it
  // ever trains the candidate. Only misses go to the pool, to compile +
  // fuzz — cheap and embarrassingly parallel.
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_shard(i) || specs_[i].kind != CandidateKind::kStateProgram) {
      continue;
    }
    if (options_.store != nullptr) {
      cached_[i] = options_.store->lookup(fps_[i]);
    }
    if (cached_[i].has_value() && cached_[i]->compiled &&
        cached_[i]->stage < store::Stage::kTrained && parsed_[i] == 0) {
      // The record says this source compiles, and a later stage may train
      // it, but the source does not parse: a fingerprint collision (or
      // foreign journal). Treat it as a genuine miss so the candidate is
      // evaluated on its own merits.
      cached_[i].reset();
    }
    if (cached_[i].has_value()) {
      apply_store_record(*cached_[i], outcomes_[i]);
    } else {
      misses.push_back(i);
    }
  }
  auto check = [&](std::size_t k) { precheck_state(misses[k]); };
  if (options_.pool != nullptr) {
    options_.pool->parallel_for(misses.size(), check);
  } else {
    for (std::size_t k = 0; k < misses.size(); ++k) check(k);
  }
  // Journal the fresh verdicts in stream order from this thread:
  // deterministic journal bytes whatever the pool's scheduling.
  for (std::size_t i : misses) journal(i, store::Stage::kChecked);
  // Accounting and events, on the stepping thread in stream order.
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_shard(i)) continue;
    if (cached_[i].has_value()) {
      ++result_.n_precheck_cache_hits;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{
            CandidateEventType::kCacheHit, StageKind::kPrecheck,
            outcomes_[i].stream_index, outcomes_[i].id,
            store::stage_name(cached_[i]->stage)});
      }
    } else if (!outcomes_[i].compiled) {
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kFailed,
                                        StageKind::kPrecheck, outcomes_[i].stream_index,
                                        outcomes_[i].id,
                                        outcomes_[i].compile_error});
      }
    } else if (!outcomes_[i].normalized) {
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kFailed,
                                        StageKind::kPrecheck, outcomes_[i].stream_index,
                                        outcomes_[i].id,
                                        outcomes_[i].normalization_error});
      }
    }
  }
}

void SearchJob::stage_probe() {
  const std::size_t n = outcomes_.size();
  probe_set_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (outcomes_[i].compiled) ++result_.n_compiled;
    if (!outcomes_[i].compiled || !outcomes_[i].normalized) continue;
    ++result_.n_normalized;
    if (cached_[i].has_value() &&
        cached_[i]->stage >= store::Stage::kProbed) {
      ++result_.n_probe_cache_hits;  // probe verdict already applied
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kCacheHit,
                                        StageKind::kProbe, outcomes_[i].stream_index,
                                        outcomes_[i].id,
                                        store::stage_name(cached_[i]->stage)});
      }
    } else if (leader_[i] != i) {
      // In-batch clone: copies the leader's probe result after the stage.
    } else if (trainable(i)) {
      probe_set_.push_back(i);
    }
  }
  rl::TrainConfig probe_config = config_.train;
  probe_config.epochs = config_.early_epochs;
  probe_config.evaluate_checkpoints = false;
  std::vector<rl::ProbeJob> probe_jobs;
  probe_jobs.reserve(probe_set_.size());
  for (std::size_t i : probe_set_) {
    ensure_program(i);
    const bool is_state = specs_[i].kind == CandidateKind::kStateProgram;
    probe_jobs.push_back(
        rl::ProbeJob{is_state ? &*programs_[i] : fixed_.state,
                     is_state ? fixed_.arch : &*outcomes_[i].arch,
                     probe_seed(specs_[i], seed_, fps_[i])});
  }
  // One engine task per probe on the pool; results are applied, journaled,
  // and announced afterwards on this thread, in stream order.
  const rl::BatchProbeTrainer trainer(
      *domain_,
      rl::BatchProbeConfig{.train = probe_config, .metrics = options_.metrics});
  const auto probe_results = trainer.train(probe_jobs, options_.pool);
  for (std::size_t k = 0; k < probe_set_.size(); ++k) {
    const std::size_t i = probe_set_[k];
    const rl::TrainResult& probe_result = probe_results[k];
    if (!probe_result.failed) {
      outcomes_[i].early_probed = true;
      outcomes_[i].early_rewards = probe_result.train_rewards;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kProbed,
                                        StageKind::kProbe,
                                        outcomes_[i].stream_index,
                                        outcomes_[i].id, ""});
      }
    } else {
      // Blew up only under real training inputs; treat as compile-stage
      // failure discovered late.
      outcomes_[i].compile_error = probe_result.error;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kFailed,
                                        StageKind::kProbe,
                                        outcomes_[i].stream_index,
                                        outcomes_[i].id, probe_result.error});
      }
    }
    journal(i, store::Stage::kProbed);
  }
  result_.n_probes_run += probe_set_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (leader_[i] != i && outcomes_[i].compiled && outcomes_[i].normalized &&
        !outcomes_[i].early_probed) {
      copy_probe_result(outcomes_[leader_[i]], outcomes_[i]);
    }
  }
  if (config_.streaming()) fold_window();
}

void SearchJob::fold_window() {
  // Streaming end-of-window fold: this window's probes meet the running
  // selection, then every per-candidate array is retired. Selection here
  // is element-for-element what batch mode's select stage computes over
  // the whole cohort — insert by (probe score desc, stream position asc),
  // evict past full_train_top — so the final retained set is the batch
  // top-K exactly.
  const std::size_t n = specs_.size();
  const auto by_rank = [](const RetainedCandidate& a,
                          const RetainedCandidate& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.outcome.stream_index < b.outcome.stream_index;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (!outcomes_[i].early_probed) continue;
    bool keep = true;
    if (options_.early_stop_model != nullptr) {
      // The model normalizes probe curves by the baseline score, so the
      // baseline trains lazily at the first fold that needs it. Its seed
      // stream is independent of the candidates', so training it before
      // the kBaseline stage cannot change any result.
      const double normalizer = original_baseline().test_score;
      keep = options_.early_stop_model->keep(
          make_record(outcomes_[i], normalizer));
    }
    if (!keep) {
      ++result_.n_early_stopped;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kEarlyStopped,
                                        StageKind::kProbe, outcomes_[i].stream_index,
                                        outcomes_[i].id, ""});
      }
      continue;
    }
    RetainedCandidate cand;
    cand.spec = std::move(specs_[i]);
    cand.fp = fps_[i];
    cand.cached = std::move(cached_[i]);
    cand.program = std::move(programs_[i]);
    cand.outcome = std::move(outcomes_[i]);
    cand.score = probe_score(cand.outcome.early_rewards);
    retained_.insert(
        std::upper_bound(retained_.begin(), retained_.end(), cand, by_rank),
        std::move(cand));
    if (retained_.size() > config_.full_train_top) {
      const RetainedCandidate evicted = std::move(retained_.back());
      retained_.pop_back();
      ++result_.n_early_stopped;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{
            CandidateEventType::kEarlyStopped, StageKind::kProbe,
            evicted.outcome.stream_index, evicted.outcome.id, ""});
      }
    }
  }
  // Retire the window. clear() keeps the capacity, so the arrays are
  // allocated once and reused: peak memory stays O(window_size).
  specs_.clear();
  fps_.clear();
  parsed_.clear();
  leader_.clear();
  cached_.clear();
  programs_.clear();
  outcomes_.clear();
  probe_set_.clear();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    window_start_time_)
          .count();
  notify_window_finish(
      WindowEvent{window_index_, window_base_, n, retained_.size(), seconds});
  ++window_index_;
}

void SearchJob::adopt_retained() {
  // Rebuild the per-candidate arrays from the running selection (already
  // in selection order) so the batch full-train and rank stages run on
  // them unchanged. Clone leaders recompute from the adopted fingerprints:
  // a retained clone always sorts after its leader (equal score, larger
  // stream position), so leaders precede clones here just as in a batch
  // cohort.
  const std::size_t k = retained_.size();
  specs_.clear();
  fps_.clear();
  cached_.clear();
  programs_.clear();
  outcomes_.clear();
  selected_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    RetainedCandidate& cand = retained_[i];
    specs_.push_back(std::move(cand.spec));
    fps_.push_back(cand.fp);
    cached_.push_back(std::move(cand.cached));
    programs_.push_back(std::move(cand.program));
    outcomes_.push_back(std::move(cand.outcome));
    selected_.push_back(i);
  }
  leader_ = leaders_by_fingerprint(fps_);
  retained_.clear();
  retained_.shrink_to_fit();
}

void SearchJob::stage_baseline() {
  result_.original = original_baseline();
  result_.original_score = result_.original.test_score;
}

std::vector<std::size_t> SearchJob::select_survivors() {
  // Candidates eligible for selection: probed ones.
  std::vector<std::size_t> probed;
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    if (outcomes_[i].early_probed) probed.push_back(i);
  }

  std::vector<std::size_t> kept;
  if (options_.early_stop_model != nullptr) {
    const double normalizer = result_.original_score;
    for (std::size_t i : probed) {
      const auto record = make_record(outcomes_[i], normalizer);
      if (options_.early_stop_model->keep(record)) {
        kept.push_back(i);
      } else {
        outcomes_[i].early_stopped = true;
      }
    }
  } else {
    kept = probed;
  }

  // Rank the kept probes by tail reward and take the full-training slots.
  // Ties break by stream position so reruns and resumed runs select
  // identically even when deduplicated candidates share a reward curve.
  const auto& outcomes = outcomes_;
  std::sort(kept.begin(), kept.end(), [&outcomes](std::size_t a,
                                                  std::size_t b) {
    const double score_a = probe_score(outcomes[a].early_rewards);
    const double score_b = probe_score(outcomes[b].early_rewards);
    if (score_a != score_b) return score_a > score_b;
    return a < b;
  });
  if (kept.size() > config_.full_train_top) {
    for (std::size_t r = config_.full_train_top; r < kept.size(); ++r) {
      outcomes_[kept[r]].early_stopped = true;
    }
    kept.resize(config_.full_train_top);
  }
  return kept;
}

void SearchJob::stage_select() {
  if (config_.streaming()) {
    // Selection already happened incrementally, window fold by window
    // fold; what is left is exactly the full-training cohort. Early-stop
    // verdicts and events fired at fold time (stage kProbe).
    adopt_retained();
    return;
  }
  selected_ = select_survivors();
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    if (!outcomes_[i].early_stopped) continue;
    ++result_.n_early_stopped;
    if (!observers_.empty()) {
      notify_candidate(CandidateEvent{CandidateEventType::kEarlyStopped,
                                      StageKind::kSelect, i, outcomes_[i].id,
                                      ""});
    }
  }
}

void SearchJob::stage_full_train() {
  // Survivors whose full run is journaled reuse it outright; a selected
  // clone waits for its leader (equal probe score + index tie-break
  // guarantee the leader is selected whenever a clone is).
  std::vector<std::size_t> to_train;
  std::vector<std::size_t> clones;
  for (std::size_t i : selected_) {
    if (cached_[i].has_value() &&
        cached_[i]->stage >= store::Stage::kTrained) {
      apply_full_train_record(*cached_[i], outcomes_[i]);
      ++result_.n_full_cache_hits;
      if (!observers_.empty()) {
        notify_candidate(CandidateEvent{CandidateEventType::kCacheHit,
                                        StageKind::kFullTrain,
                                        outcomes_[i].stream_index, outcomes_[i].id,
                                        store::stage_name(cached_[i]->stage)});
      }
    } else if (leader_[i] != i) {
      clones.push_back(i);
    } else if (trainable(i)) {
      to_train.push_back(i);
    }
  }
  rl::SessionConfig session_config;
  session_config.seeds = config_.seeds;
  session_config.train = config_.train;
  std::vector<rl::SessionJob> jobs;
  jobs.reserve(to_train.size());
  for (std::size_t i : to_train) {
    ensure_program(i);
    const bool is_state = specs_[i].kind == CandidateKind::kStateProgram;
    jobs.push_back(
        rl::SessionJob{is_state ? &*programs_[i] : fixed_.state,
                       is_state ? fixed_.arch : &*outcomes_[i].arch,
                       full_train_seed(specs_[i], seed_, fps_[i])});
  }
  const auto sessions =
      rl::run_sessions(*domain_, jobs, session_config, options_.pool);
  apply_session_results(outcomes_, to_train, sessions);
  result_.n_full_trains_run = to_train.size();
  for (std::size_t i : clones) {
    copy_full_train_result(outcomes_[leader_[i]], outcomes_[i]);
  }
  for (std::size_t i : to_train) {
    journal(i, store::Stage::kTrained);
    if (!observers_.empty()) {
      notify_candidate(CandidateEvent{
          CandidateEventType::kTrained, StageKind::kFullTrain,
          outcomes_[i].stream_index, outcomes_[i].id,
          outcomes_[i].fully_trained
              ? "test_score=" + std::to_string(outcomes_[i].test_score)
              : "every session failed"});
    }
  }
}

void SearchJob::stage_rank() {
  // The best-candidate tie-break is by stream position, explicitly: in
  // batch mode the scan order makes the explicit clause a no-op, but in
  // streaming mode outcomes_ is in selection (probe-score) order, so the
  // clause is what keeps both modes picking the identical winner.
  std::size_t best_stream = SIZE_MAX;
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    if (!outcomes_[i].fully_trained) continue;
    ++result_.n_fully_trained;
    const bool tie_earlier = result_.has_best() &&
                             outcomes_[i].test_score == result_.best_score &&
                             outcomes_[i].stream_index < best_stream;
    if (outcomes_[i].test_score > result_.best_score || tie_earlier) {
      result_.best_score = outcomes_[i].test_score;
      result_.best_index = i;
      best_stream = outcomes_[i].stream_index;
    }
  }
  result_.outcomes = std::move(outcomes_);
}

}  // namespace nada::search
