#include "search/search_job.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
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

/// Serves a store hit's check and probe results on a fresh outcome, moving
/// them out of the record: the job reads the record afterwards only for its
/// stage, its compiled flag and its training results. Those training results
/// apply only once the candidate is selected (copy_full_train_result), so
/// the outcome's stage stops at kProbed.
void apply_store_record(store::OutcomeRecord& record,
                        CandidateOutcome& outcome) {
  outcome.stage = std::min(record.stage, store::Stage::kProbed);
  outcome.compiled = record.compiled;
  outcome.compile_error = std::move(record.compile_error);
  outcome.normalized = record.normalized;
  outcome.normalization_error = std::move(record.normalization_error);
  if (record.stage >= store::Stage::kProbed) {
    outcome.early_probed = record.early_probed;
    outcome.early_rewards = std::move(record.early_rewards);
  }
}

/// Runs fn(i) for every i in [0, n) in contiguous chunks, a few per thread
/// so that the per-chunk overhead stays small next to microsecond-scale
/// items. The calling thread claims chunks beside the pool's workers, from
/// one counter, and returns once every chunk is done: a worker that wakes
/// late (or is busy elsewhere) leaves its share to the others. Without a
/// pool every item runs inline. If fn throws, the rest of its chunk is
/// skipped, every other chunk still runs, and the first exception is
/// rethrown here.
void for_each_chunked(util::ThreadPool* pool, std::size_t n,
                      const std::function<void(std::size_t)>& fn) {
  const std::size_t chunks =
      pool != nullptr ? std::min(n, 4 * (pool->size() + 1)) : 1;
  if (chunks <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared with the helper tasks: one that starts after the last chunk was
  // claimed (and after this call returned) finds none left and returns
  // without touching fn.
  struct Pass {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex error_mutex;
    std::exception_ptr error;
  };
  const auto pass = std::make_shared<Pass>();
  const auto work = [pass, &fn, n, chunks] {
    for (std::size_t c = pass->next.fetch_add(1); c < chunks;
         c = pass->next.fetch_add(1)) {
      try {
        for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
          fn(i);
        }
      } catch (...) {
        std::lock_guard lock(pass->error_mutex);
        if (!pass->error) pass->error = std::current_exception();
      }
      if (pass->done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        pass->done.notify_all();
      }
    }
  };
  for (std::size_t h = 0; h < std::min(pool->size(), chunks - 1); ++h) {
    pool->submit(work);
  }
  work();
  for (std::size_t done = pass->done.load(std::memory_order_acquire);
       done < chunks; done = pass->done.load(std::memory_order_acquire)) {
    pass->done.wait(done, std::memory_order_acquire);
  }
  if (pass->error) std::rethrow_exception(pass->error);
}

/// One pull from the source, timed into search.generate.pull_seconds
/// (`seconds`, null when metrics are off) on whichever thread runs it.
std::vector<CandidateSpec> pull(CandidateSource& source, std::size_t n,
                                obs::Histogram* seconds) {
  obs::ScopedTimer timer(seconds);
  return source.generate(n);
}

/// An in-window clone takes its leader's probe result.
void copy_probe_result(const CandidateOutcome& from, CandidateOutcome& to) {
  to.stage = from.stage;
  to.early_probed = from.early_probed;
  to.early_rewards = from.early_rewards;
  if (!from.early_probed) to.compile_error = from.compile_error;
}

/// A selected candidate takes the training results of its store hit or of
/// its cohort leader.
void copy_full_train_result(const store::OutcomeRecord& from,
                            CandidateOutcome& to) {
  to.stage = from.stage;
  to.fully_trained = from.fully_trained;
  to.test_score = from.test_score;
  to.emulation_score = from.emulation_score;
  to.curve_epochs = from.curve_epochs;
  to.median_curve = from.median_curve;
}

/// Full training's protocol: the funnel's seeds and training budget.
rl::SessionConfig session_config(const SearchConfig& config) {
  rl::SessionConfig session;
  session.seeds = config.seeds;
  session.train = config.train;
  return session;
}

/// The original design's training job: `original_state` (the domain's
/// baseline state, compiled) under config.baseline_arch, on a seed stream
/// of its own.
rl::SessionJob baseline_job(const SearchConfig& config,
                            const dsl::StateProgram& original_state,
                            std::uint64_t seed) {
  return rl::SessionJob{&original_state, &config.baseline_arch,
                        seed ^ 0x0817b05eULL};
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
  return rl::run_sessions(domain,
                          {baseline_job(config, original_state, seed)},
                          session_config(config), pool)
      .front();
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

std::optional<rl::SessionResult>& SearchJob::baseline_slot() {
  return options_.baseline_cache != nullptr ? *options_.baseline_cache
                                            : local_baseline_;
}

const rl::SessionResult& SearchJob::original_baseline() {
  std::optional<rl::SessionResult>& baseline = baseline_slot();
  if (!baseline.has_value()) {
    baseline = train_baseline(*domain_, config_, seed_, options_.pool);
  }
  return *baseline;
}

void SearchJob::serve_baseline() {
  result_.original = *baseline_slot();
  result_.original_score = result_.original.test_score;
}

StageKind SearchJob::next_stage_kind() const { return next_; }

bool SearchJob::done() const { return next_ == StageKind::kDone; }

bool SearchJob::next_stage() {
  if (done()) return false;
  started_ = true;
  const StageKind stage = next_;
  if (stage == StageKind::kGenerate) {
    window_start_time_ = std::chrono::steady_clock::now();
    for (Observer* o : observers_) {
      o->on_window_start(window_index_, generated_total_);
    }
  }
  for (Observer* o : observers_) o->on_stage_start(stage);
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
  const StageEvent event{stage, seconds};
  for (Observer* o : observers_) o->on_stage_finish(event);
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

std::size_t SearchJob::next_ask() const {
  const std::size_t window =
      config_.streaming() ? config_.window_size : config_.num_candidates;
  return std::min(window, config_.num_candidates - generated_total_);
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
  // A streaming job is back at kGenerate at every window boundary, so the
  // stage alone cannot tell a fresh job; and with a look-ahead in flight,
  // reset() would race the puller.
  if (started_) {
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
    leader_[i] =
        first_seen.try_emplace(window_[i].outcome.fingerprint, i).first->second;
  }
}

bool SearchJob::in_shard(const Candidate& cand) const {
  return !options_.range.has_value() ||
         options_.range->contains(cand.outcome.fingerprint);
}

bool SearchJob::trainable(const Candidate& cand) {
  return cand.spec.kind == CandidateKind::kArchitecture ||
         cand.program.has_value() ||
         (cand.cached.has_value() && cand.cached->compiled);
}

void SearchJob::ensure_program(Candidate& cand) {
  if (cand.spec.kind == CandidateKind::kStateProgram &&
      !cand.program.has_value()) {
    cand.program = dsl::StateProgram::compile(cand.outcome.source);
  }
}

void SearchJob::announce(CandidateEventType type, StageKind stage,
                         const CandidateOutcome& outcome,
                         std::string_view detail) const {
  if (observers_.empty()) return;
  const CandidateEvent event{type, stage, outcome.stream_index, outcome.id,
                             std::string(detail)};
  for (Observer* o : observers_) o->on_candidate(event);
}

void SearchJob::journal(Candidate& cand, store::Stage stage) {
  cand.outcome.stage = stage;
  if (options_.store != nullptr) options_.store->put(cand.outcome);
}

void SearchJob::stage_generate() {
  // Take the next window: the look-ahead's pull when one is in flight, else
  // an inline pull. A short pull marks the stream exhausted.
  window_base_ = generated_total_;
  const std::size_t ask = next_ask();
  obs::Histogram* const pull_seconds =
      obs::maybe_histogram(options_.metrics, "search.generate.pull_seconds");
  std::vector<CandidateSpec> specs;
  {
    obs::ScopedTimer wait(obs::maybe_histogram(
        options_.metrics, "search.generate.pull_wait_seconds"));
    specs = ahead_.valid() ? ahead_.get() : pull(*source_, ask, pull_seconds);
  }
  if (specs.size() < ask) stream_exhausted_ = true;
  const std::size_t n = specs.size();
  generated_total_ += n;
  result_.n_total += n;
  if (options_.pool != nullptr && !stream_exhausted_ &&
      generated_total_ < config_.num_candidates) {
    // Look one window ahead: ask now exactly what the next generate stage
    // would ask, on the puller, while this window is screened. The pull
    // runs off the pool so that its allocations stay in one thread's arena.
    if (!puller_.has_value()) puller_.emplace(1);
    ahead_ = puller_->submit(
        [source = source_, next = next_ask(), pull_seconds] {
          return pull(*source, next, pull_seconds);
        });
  }
  if (n == 0) {
    // Empty window (the source ran dry exactly at a boundary): nothing to
    // check or probe — close the window here; stage_after() skips ahead.
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      window_start_time_)
            .count();
    const WindowEvent event{window_index_, window_base_, 0,
                            selection_.size(), seconds};
    for (Observer* o : observers_) o->on_window_finish(event);
    ++window_index_;
    return;
  }
  // The last fold emptied the window; its capacity is reused.
  window_.resize(n);
  for (std::size_t i = 0; i < n; ++i) window_[i].spec = std::move(specs[i]);
  // Per-candidate slots fill on the pool, this thread working beside it:
  // the fingerprint, and for an in-shard state candidate its store hit.
  // Every lookup of the window precedes every journal write of the window
  // (pre-check and probe), so in-window clones read as misses and dedup
  // through the leader table. Everything else (leaders, events, journal
  // writes) stays on this thread in stream order.
  {
    obs::ScopedTimer timer(obs::maybe_histogram(
        options_.metrics, "search.generate.fingerprint_seconds"));
    for_each_chunked(options_.pool, n,
                     [&](std::size_t i) { fill_slot(window_[i], i); });
  }
  index_leaders();
  for (std::size_t i = 0; i < n; ++i) {
    const Candidate& cand = window_[i];
    const CandidateOutcome& outcome = cand.outcome;
    announce(CandidateEventType::kEntered, StageKind::kGenerate, outcome);
    if (!in_shard(cand)) {
      ++result_.n_out_of_shard;
      announce(CandidateEventType::kOutOfShard, StageKind::kGenerate,
               outcome);
    }
  }
}

void SearchJob::fill_slot(Candidate& cand, std::size_t position) {
  // NOTE: runs on pool threads, one slot per call.
  CandidateOutcome& outcome = cand.outcome;
  bool parsed = false;  // state candidates: whether the source parsed
  outcome.fingerprint = fingerprint_of(cand.spec, fixed_fps_, &parsed);
  outcome.stream_index = window_base_ + position;
  outcome.id = std::move(cand.spec.id);
  outcome.source = std::move(cand.spec.source);
  if (cand.spec.kind == CandidateKind::kArchitecture) {
    outcome.arch = cand.spec.arch;
    return;  // looked up in pre-check, in stream order with its checks
  }
  if (options_.store == nullptr || !in_shard(cand)) return;
  cand.cached = options_.store->lookup(outcome.fingerprint);
  if (!cand.cached.has_value()) return;
  if (cand.cached->compiled && cand.cached->stage < store::Stage::kTrained &&
      !parsed) {
    // The record says this source compiles, and a later stage may train
    // it, but the source does not parse: a fingerprint collision (or
    // foreign journal). Treat it as a genuine miss so the candidate is
    // evaluated on its own merits.
    cand.cached.reset();
    return;
  }
  apply_store_record(*cand.cached, outcome);
  // No stage reads the hit's id or source (the outcome keeps the spec's):
  // free them here, on the thread that decoded them.
  std::string().swap(cand.cached->id);
  std::string().swap(cand.cached->source);
}

void SearchJob::precheck_arch(Candidate& cand,
                              const nn::StateSignature& signature) {
  CandidateOutcome& outcome = cand.outcome;
  if (options_.store != nullptr) {
    cand.cached = options_.store->lookup(outcome.fingerprint);
  }
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
      outcome.source, domain_->catalog(), &cand.program);
  outcome.compiled = compile.passed;
  outcome.compile_error = compile.reason;
  if (compile.passed) {
    const auto norm = filter::normalization_check(
        *cand.program, domain_->catalog(), config_.normalization_threshold,
        config_.normalization_fuzz_runs,
        seed_ ^ (outcome.fingerprint.lo * 0x9e3779b9ULL));
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
  // State-program candidates were looked up in the generate stage's pass,
  // and a hit's recorded verdict is already served without compiling the
  // source: the probe or full-training stage compiles the program if it
  // ever trains the candidate. Only misses go to the pool, to compile +
  // fuzz — cheap and embarrassingly parallel.
  std::vector<Candidate*> misses;
  for (Candidate& cand : window_) {
    if (in_shard(cand) && cand.spec.kind == CandidateKind::kStateProgram &&
        !cand.cached.has_value()) {
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
  for (Candidate* cand : misses) journal(*cand, store::Stage::kChecked);
  // Accounting and events, on the stepping thread in stream order.
  for (const Candidate& cand : window_) {
    if (!in_shard(cand)) continue;
    const CandidateOutcome& outcome = cand.outcome;
    if (cand.cached.has_value()) {
      ++result_.n_precheck_cache_hits;
      announce(CandidateEventType::kCacheHit, StageKind::kPrecheck, outcome,
               store::stage_name(cand.cached->stage));
    } else if (!outcome.compiled) {
      announce(CandidateEventType::kFailed, StageKind::kPrecheck, outcome,
               outcome.compile_error);
    } else if (!outcome.normalized) {
      announce(CandidateEventType::kFailed, StageKind::kPrecheck, outcome,
               outcome.normalization_error);
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
      announce(CandidateEventType::kCacheHit, StageKind::kProbe, outcome,
               store::stage_name(cand.cached->stage));
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
                     probe_seed(cand.spec, seed_, cand.outcome.fingerprint)});
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
      announce(CandidateEventType::kProbed, StageKind::kProbe, outcome);
    } else {
      // Blew up only under real training inputs; treat as compile-stage
      // failure discovered late.
      outcome.compile_error = probe_result.error;
      announce(CandidateEventType::kFailed, StageKind::kProbe, outcome,
               probe_result.error);
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
    announce(CandidateEventType::kEarlyStopped, StageKind::kProbe, outcome);
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
      // stream is independent of the candidates', so training it here
      // rather than beside the cohort cannot change any result.
      const double normalizer = original_baseline().test_score;
      if (!options_.early_stop_model->keep(
              make_record(cand.outcome, normalizer))) {
        stop(std::move(cand.outcome));
        continue;
      }
    }
    cand.score = probe_score(cand.outcome.early_rewards);
    // A candidate that cannot enter a full selection stops where it
    // stands: inserting it at the back and evicting it at once would move
    // the whole Candidate twice to the same end.
    if (selection_.size() == config_.full_train_top &&
        !by_rank(cand, selection_.back())) {
      stop(std::move(cand.outcome));
      continue;
    }
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
  const WindowEvent event{window_index_, window_base_, n, selection_.size(),
                          seconds};
  for (Observer* o : observers_) o->on_window_finish(event);
  ++window_index_;
}

void SearchJob::stage_baseline() {
  // A baseline trained earlier (by a job sharing the cache, or for a
  // fold's early-stop model) is served here. Otherwise it trains beside the
  // cohort in the full-training stage, where its sessions keep the pool's
  // threads busy instead of running alone.
  if (baseline_slot().has_value()) serve_baseline();
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
      copy_full_train_result(*cand.cached, cand.outcome);
      ++result_.n_full_cache_hits;
      announce(CandidateEventType::kCacheHit, StageKind::kFullTrain,
               cand.outcome, store::stage_name(cand.cached->stage));
    } else if (leader_[i] != i) {
      clones.push_back(i);
    } else if (trainable(cand)) {
      to_train.push_back(i);
    }
  }
  std::vector<rl::SessionJob> jobs;
  jobs.reserve(to_train.size() + 1);
  for (std::size_t i : to_train) {
    Candidate& cand = window_[i];
    ensure_program(cand);
    const bool is_state = cand.spec.kind == CandidateKind::kStateProgram;
    jobs.push_back(rl::SessionJob{
        is_state ? &*cand.program : fixed_.state,
        is_state ? fixed_.arch : &*cand.outcome.arch,
        full_train_seed(cand.spec, seed_, cand.outcome.fingerprint)});
  }
  // The baseline, unless already known, is one more job of the same call:
  // its seed stream is its own, so training it here computes exactly what
  // train_baseline() would.
  std::optional<rl::SessionResult>& baseline = baseline_slot();
  std::optional<dsl::StateProgram> original_state;
  if (!baseline.has_value()) {
    original_state =
        dsl::StateProgram::compile(domain_->baseline_state_source());
    jobs.push_back(baseline_job(config_, *original_state, seed_));
  }
  auto sessions = rl::run_sessions(*domain_, jobs, session_config(config_),
                                   options_.pool);
  if (original_state.has_value()) baseline = std::move(sessions.back());
  serve_baseline();
  result_.n_full_trains_run = to_train.size();
  for (std::size_t k = 0; k < to_train.size(); ++k) {
    Candidate& cand = window_[to_train[k]];
    CandidateOutcome& outcome = cand.outcome;
    rl::SessionResult& session = sessions[k];
    outcome.fully_trained = !session.failed;
    outcome.test_score = session.test_score;
    outcome.emulation_score = session.emulation_score;
    outcome.curve_epochs = std::move(session.curve_epochs);
    outcome.median_curve = std::move(session.median_curve);
    journal(cand, store::Stage::kTrained);
    announce(CandidateEventType::kTrained, StageKind::kFullTrain, outcome,
             outcome.fully_trained
                 ? "test_score=" + std::to_string(outcome.test_score)
                 : "every session failed");
  }
  // Clones copy once their leaders are journaled, stage included.
  for (std::size_t i : clones) {
    copy_full_train_result(window_[leader_[i]].outcome, window_[i].outcome);
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
