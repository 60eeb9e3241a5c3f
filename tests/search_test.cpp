// Tests for the composable search API (src/search/); funnel accounting,
// config validation and the scaled config are in core_test.cpp:
//
//   * stage stepping: next_stage() walks the documented stage order and a
//     stepped job equals a run_to_completion() job,
//   * observer coverage: every stage fires start/finish with a timing, and
//     every candidate milestone (entered / cached / failed / probed /
//     early-stopped / trained) is represented — no funnel transition goes
//     silent,
//   * ranges: four run_range passes over ShardPlan(4) + merge_and_rank_paths
//     equal the single-process run — identical rankings and identical
//     journal records (the multi-worker driver's correctness pin) — and a
//     lost range journal is recomputed by the driver to the same result,
//   * resume: SearchJob::resume() serves every journaled stage from the
//     store and reproduces the cold result,
//   * one record: an outcome is its store record plus its stream position —
//     same fingerprint as its spec, same JSONL export as its journal record,
//     and a stage that covers its results, cold and warm,
//   * unified candidates: one job can carry state-program and architecture
//     candidates in the same stream,
//   * store keys: fingerprints of whole generator streams match pinned
//     digests, and a pooled job journals exactly those keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "cc/cc_domain.h"
#include "cc/cc_state.h"
#include "env/abr_domain.h"
#include "filter/earlystop.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/observer.h"
#include "search/search_job.h"
#include "search/shard_runner.h"
#include "store/shard.h"
#include "util/fs.h"

#include "journal_lines.h"

namespace nada::search {
namespace {

std::string fresh_path(const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "nada_search_" + tag + ".nsb";
  std::remove(path.c_str());
  return path;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "nada_search_" + tag;
  return dir;
}

SearchConfig tiny_config() {
  SearchConfig config;
  config.num_candidates = 30;
  config.early_epochs = 8;
  config.full_train_top = 3;
  config.seeds = 2;
  config.train.epochs = 24;
  config.train.test_interval = 8;
  config.train.max_eval_traces = 4;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = 8;
  arch.scalar_hidden = 8;
  arch.merge_hidden = 16;
  config.baseline_arch = arch;
  return config;
}

struct Fixture {
  trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kStarlink, 0.2, 99);
  video::Video video = video::make_test_video(video::pensieve_ladder(), 7);
  env::AbrDomain domain{dataset, video};
  util::ThreadPool pool{8};
};

void expect_same_result(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.n_total, b.n_total);
  EXPECT_EQ(a.n_compiled, b.n_compiled);
  EXPECT_EQ(a.n_normalized, b.n_normalized);
  EXPECT_EQ(a.n_early_stopped, b.n_early_stopped);
  EXPECT_EQ(a.n_fully_trained, b.n_fully_trained);
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  EXPECT_DOUBLE_EQ(a.original_score, b.original_score);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].compiled, b.outcomes[i].compiled);
    EXPECT_EQ(a.outcomes[i].normalized, b.outcomes[i].normalized);
    EXPECT_EQ(a.outcomes[i].early_probed, b.outcomes[i].early_probed);
    EXPECT_EQ(a.outcomes[i].early_stopped, b.outcomes[i].early_stopped);
    EXPECT_EQ(a.outcomes[i].fully_trained, b.outcomes[i].fully_trained);
    EXPECT_DOUBLE_EQ(a.outcomes[i].test_score, b.outcomes[i].test_score);
    EXPECT_EQ(a.outcomes[i].early_rewards, b.outcomes[i].early_rewards);
  }
}

// ---- stage stepping ---------------------------------------------------------

TEST(SearchJobStepping, WalksTheDocumentedStageOrder) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  StateCandidateSource source(generator);
  JobOptions options;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 1234, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);

  const StageKind expected[] = {
      StageKind::kGenerate, StageKind::kPrecheck, StageKind::kProbe,
      StageKind::kBaseline, StageKind::kSelect,   StageKind::kFullTrain,
      StageKind::kRank};
  for (StageKind stage : expected) {
    ASSERT_FALSE(job.done());
    EXPECT_EQ(job.next_stage_kind(), stage);
    job.next_stage();
  }
  EXPECT_TRUE(job.done());
  EXPECT_EQ(job.next_stage_kind(), StageKind::kDone);
  EXPECT_FALSE(job.next_stage());  // stepping a finished job is a no-op

  // Partial results accumulate: after the probe stage the counters exist
  // even though selection never ran.
  EXPECT_EQ(job.result().n_total, config.num_candidates);
  EXPECT_GT(job.result().n_probes_run, 0u);
  EXPECT_GT(job.result().n_fully_trained, 0u);
}

TEST(SearchJobStepping, SteppedJobEqualsRunToCompletion) {
  Fixture fx;
  const SearchConfig config = tiny_config();

  gen::StateGenerator gen1(gen::gpt4_profile(), gen::PromptStrategy{}, 77);
  StateCandidateSource source1(gen1);
  JobOptions options;
  options.pool = &fx.pool;
  SearchJob stepped(fx.domain, config, 1234, source1,
                    FixedDesign{nullptr, &config.baseline_arch}, options);
  while (stepped.next_stage()) {
  }

  gen::StateGenerator gen2(gen::gpt4_profile(), gen::PromptStrategy{}, 77);
  StateCandidateSource source2(gen2);
  SearchJob whole(fx.domain, config, 1234, source2,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto result = whole.run_to_completion();
  expect_same_result(stepped.result(), result);
}

// ---- observer coverage ------------------------------------------------------

TEST(SearchObserver, EveryStageAndMilestoneFires) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  const std::string path = fresh_path("observer");
  store::CandidateStore store(path, store_scope(fx.domain, config, 1234));
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  StateCandidateSource source(generator);
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 1234, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  RecordingObserver recording;
  std::ostringstream stream_sink;
  StreamObserver stream(stream_sink);
  job.add_observer(&recording);
  job.add_observer(&stream);
  const auto result = job.run_to_completion();

  // Stage coverage: all seven stages started and finished, in order, with
  // non-negative timings.
  ASSERT_EQ(recording.started.size(), 7u);
  ASSERT_EQ(recording.finished.size(), 7u);
  for (std::size_t s = 0; s < 7; ++s) {
    EXPECT_EQ(recording.started[s], static_cast<StageKind>(s));
    EXPECT_EQ(recording.finished[s].stage, static_cast<StageKind>(s));
    EXPECT_GE(recording.finished[s].seconds, 0.0);
  }

  // Candidate-event coverage: every funnel transition is represented.
  EXPECT_EQ(recording.count(CandidateEventType::kEntered), result.n_total);
  const std::size_t failures = result.n_total - result.n_normalized;
  EXPECT_GE(recording.count(CandidateEventType::kFailed), failures > 0 ? 1u
                                                                       : 0u);
  EXPECT_GT(recording.count(CandidateEventType::kProbed), 0u);
  EXPECT_EQ(recording.count(CandidateEventType::kEarlyStopped),
            result.n_early_stopped);
  EXPECT_EQ(recording.count(CandidateEventType::kTrained),
            result.n_full_trains_run);
  EXPECT_EQ(recording.count(CandidateEventType::kCacheHit), 0u);  // cold run
  EXPECT_FALSE(stream_sink.str().empty());

  // Warm run: the cache-hit milestone fires for every served stage.
  gen::StateGenerator gen2(gen::gpt4_profile(), gen::PromptStrategy{}, 77);
  StateCandidateSource source2(gen2);
  SearchJob warm(fx.domain, config, 1234, source2,
                 FixedDesign{nullptr, &config.baseline_arch}, options);
  RecordingObserver warm_recording;
  warm.add_observer(&warm_recording);
  const auto warm_result = warm.run_to_completion();
  EXPECT_EQ(warm_result.n_probes_run, 0u);
  EXPECT_EQ(warm_recording.count(CandidateEventType::kCacheHit),
            warm_result.cache_hits());
  EXPECT_GT(warm_recording.count(CandidateEventType::kCacheHit), 0u);
}

// ---- fingerprint ranges ----------------------------------------------------

/// The single-process reference run (seed 1234, generator seed 77): one
/// job over the whole stream, journaling into `store`.
SearchResult run_single(Fixture& fx, const SearchConfig& config,
                        store::CandidateStore& store) {
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  StateCandidateSource source(generator);
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 1234, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  return job.run_to_completion();
}

/// One worker per ShardPlan(n) range over run_single's stream (one
/// generator each, as separate processes would have), journaling into
/// `<dir>/range-<i>.nsb`. Returns the worker results; `journals` receives
/// the journal paths.
std::vector<SearchResult> run_ranges(ShardRunner& runner,
                                     const SearchConfig& config,
                                     std::size_t n, const std::string& dir,
                                     std::vector<std::string>& journals) {
  std::vector<SearchResult> results;
  const store::ShardPlan plan(n);
  for (std::size_t i = 0; i < n; ++i) {
    journals.push_back(dir + "/range-" + std::to_string(i) + ".nsb");
    std::remove(journals.back().c_str());
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  77);
    StateCandidateSource source(generator);
    results.push_back(runner.run_range(
        plan.range(i), journals.back(), source,
        FixedDesign{nullptr, &config.baseline_arch}));
  }
  return results;
}

TEST(ShardRunnerTest, FourShardRunMergesToSingleProcessResult) {
  Fixture fx;
  SearchConfig config = tiny_config();
  const std::string dir = fresh_dir("shards");

  // Single-process reference.
  const std::string single_path = fresh_path("shard_single");
  store::CandidateStore single_store(single_path,
                                     store_scope(fx.domain, config, 1234));
  const auto single_result = run_single(fx, config, single_store);

  // Four range workers, then the driver.
  ShardRunnerConfig runner_config;
  runner_config.store_dir = dir;
  ShardRunner runner(fx.domain, config, 1234, runner_config, &fx.pool);
  std::vector<std::string> journals;
  std::size_t in_range_total = 0;
  std::size_t probes_total = 0;
  for (const auto& worker_result :
       run_ranges(runner, config, 4, dir, journals)) {
    EXPECT_EQ(worker_result.n_total, config.num_candidates);
    in_range_total += worker_result.n_total - worker_result.n_out_of_shard;
    probes_total += worker_result.n_probes_run;
    // Workers stop before the cohort-global stages.
    EXPECT_EQ(worker_result.n_fully_trained, 0u);
  }
  // The ranges partition the stream exactly.
  EXPECT_EQ(in_range_total, config.num_candidates);
  EXPECT_EQ(probes_total, single_result.n_probes_run);

  std::remove(runner.merged_store_path().c_str());
  gen::StateGenerator driver_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                 77);
  StateCandidateSource driver_source(driver_gen);
  const auto merged_result = runner.merge_and_rank_paths(
      journals, driver_source, FixedDesign{nullptr, &config.baseline_arch});

  // The driver re-executes nothing below full training: every pre-check
  // and probe comes from the range journals.
  EXPECT_EQ(merged_result.n_probes_run, 0u);
  EXPECT_EQ(merged_result.n_full_trains_run,
            single_result.n_full_trains_run);

  // Identical rankings...
  expect_same_result(single_result, merged_result);

  // ...and identical journals: same fingerprints, and per fingerprint the
  // byte-identical exported record line (order differs — grouped by range
  // vs by stream — so compare as sorted line sets).
  store::CandidateStore merged_store(runner.merged_store_path(),
                                     runner.scope());
  EXPECT_EQ(test::sorted_journal_lines(single_path),
            test::sorted_journal_lines(runner.merged_store_path()));
  EXPECT_EQ(merged_store.size(), single_store.size());
}

TEST(ShardRunnerTest, DriverRecomputesAMissingRangeJournal) {
  Fixture fx;
  SearchConfig config = tiny_config();
  const std::string dir = fresh_dir("missing_range");

  const std::string single_path = fresh_path("missing_range_single");
  store::CandidateStore single_store(single_path,
                                     store_scope(fx.domain, config, 1234));
  const auto single_result = run_single(fx, config, single_store);

  ShardRunnerConfig runner_config;
  runner_config.store_dir = dir;
  ShardRunner runner(fx.domain, config, 1234, runner_config, &fx.pool);
  std::vector<std::string> journals;
  const auto workers = run_ranges(runner, config, 3, dir, journals);
  // A worker that died before its first append leaves no journal: lose
  // range 1's whole journal before the merge.
  ASSERT_GT(workers[1].n_probes_run, 0u);
  ASSERT_EQ(std::remove(journals[1].c_str()), 0);

  std::remove(runner.merged_store_path().c_str());
  gen::StateGenerator driver_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                 77);
  StateCandidateSource driver_source(driver_gen);
  const auto merged_result = runner.merge_and_rank_paths(
      journals, driver_source, FixedDesign{nullptr, &config.baseline_arch});

  // The driver probes exactly the lost range, and the result and the
  // journal are the single-process run's.
  EXPECT_EQ(merged_result.n_probes_run, workers[1].n_probes_run);
  expect_same_result(single_result, merged_result);
  EXPECT_EQ(test::sorted_journal_lines(single_path),
            test::sorted_journal_lines(runner.merged_store_path()));
}

// ---- resume folding ---------------------------------------------------------

TEST(SearchJobResume, ResumeServesJournaledStagesAndMatchesColdRun) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  const std::string path = fresh_path("resume");
  store::CandidateStore store(path, store_scope(fx.domain, config, 4321));
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                88);
  StateCandidateSource source(generator);
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;
  SearchJob first(fx.domain, config, 4321, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto cold = first.run_to_completion();
  EXPECT_GT(cold.n_probes_run, 0u);

  // resume() rewinds the (already consumed) source itself.
  SearchJob resumed(fx.domain, config, 4321, source,
                    FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto warm = resumed.resume();
  EXPECT_EQ(warm.n_probes_run, 0u);
  EXPECT_EQ(warm.n_full_trains_run, 0u);
  expect_same_result(cold, warm);
}

TEST(SearchJobResume, ResumeWithoutStoreThrows) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                7);
  StateCandidateSource source(generator);
  SearchJob job(fx.domain, config, 1, source,
                FixedDesign{nullptr, &config.baseline_arch});
  EXPECT_THROW((void)job.resume(), std::logic_error);
}

TEST(SearchJobResume, ResumeAfterSteppingThrows) {
  // A streaming job is back at kGenerate at every window boundary. Resuming
  // there would rewind the source under the job: it would screen window 0
  // again and never screen the rest of the stream.
  Fixture fx;
  SearchConfig config = tiny_config();
  config.num_candidates = 8;
  config.full_train_top = 2;
  config.window_size = 4;
  const std::string path = fresh_path("resume_stepped");
  store::CandidateStore store(path, store_scope(fx.domain, config, 4321));
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                88);
  StateCandidateSource source(generator);
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 4321, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  for (const StageKind stage :
       {StageKind::kGenerate, StageKind::kPrecheck, StageKind::kProbe}) {
    ASSERT_EQ(job.next_stage_kind(), stage);
    job.next_stage();
  }
  ASSERT_EQ(job.next_stage_kind(), StageKind::kGenerate);
  EXPECT_THROW((void)job.resume(), std::logic_error);

  // The store holds window 0's records and nothing else.
  gen::StateGenerator replay(gen::gpt4_profile(), gen::PromptStrategy{}, 88);
  StateCandidateSource replay_source(replay);
  std::set<std::string> window0;
  for (const CandidateSpec& spec : replay_source.generate(4)) {
    window0.insert(
        fingerprint_of(spec, FixedDesign{nullptr, &config.baseline_arch})
            .hex());
  }
  std::set<std::string> journaled;
  for (const store::OutcomeRecord& record : store.records()) {
    journaled.insert(record.fingerprint.hex());
  }
  EXPECT_EQ(journaled, window0);
}

// ---- one candidate record ---------------------------------------------------

/// `n` candidates: the generator's first n/2, then each of them again under
/// a new id. In batch mode every clone shares its leader's window; short
/// windows meet the clone as a store hit. The best candidate and its clone
/// tie on probe score, so the full-training cohort always holds a clone.
VectorCandidateSource with_clones(CandidateSource& generated, std::size_t n) {
  std::vector<CandidateSpec> specs = generated.generate(n / 2);
  for (std::size_t i = 0, half = specs.size(); i < half; ++i) {
    CandidateSpec clone = specs[i];
    clone.id += "-clone";
    specs.push_back(std::move(clone));
  }
  return VectorCandidateSource(std::move(specs));
}

/// An outcome is its store record plus its stream position: it carries the
/// fingerprint of the spec at that position, it exports the same JSONL line
/// as the journal record it first sighted (a clone's record is its
/// leader's), and its stage covers its results, reaching kTrained exactly
/// for the selected. The runs here have no range, so every outcome is in
/// range.
void expect_outcomes_are_records(const SearchResult& result,
                                 CandidateSource& source,
                                 const FixedDesign& fixed, std::size_t n,
                                 const store::CandidateStore& store) {
  source.reset();
  const std::vector<CandidateSpec> specs = source.generate(n);
  ASSERT_FALSE(result.outcomes.empty());
  std::size_t own_records = 0;
  std::size_t trained_clones = 0;
  for (const CandidateOutcome& o : result.outcomes) {
    SCOPED_TRACE(o.id);
    ASSERT_LT(o.stream_index, specs.size());
    EXPECT_EQ(o.fingerprint, fingerprint_of(specs[o.stream_index], fixed));
    if (o.fully_trained) EXPECT_EQ(o.stage, store::Stage::kTrained);
    if (o.early_probed) EXPECT_GE(o.stage, store::Stage::kProbed);
    EXPECT_EQ(o.stage == store::Stage::kTrained,
              o.early_probed && !o.early_stopped);
    const auto record = store.lookup(o.fingerprint);
    ASSERT_TRUE(record.has_value());
    if (record->id != o.id) {
      if (o.fully_trained) ++trained_clones;
      continue;
    }
    ++own_records;
    EXPECT_EQ(store::CandidateStore::encode_line(*record, store.scope()),
              store::CandidateStore::encode_line(o, store.scope()));
  }
  EXPECT_GT(own_records, 0u);
  EXPECT_GT(trained_clones, 0u);
}

/// A cold store-backed search, then a warm rerun of it on the same store;
/// both checked by expect_outcomes_are_records.
void expect_cold_and_warm_records(const env::TaskDomain& domain,
                                  const SearchConfig& config,
                                  CandidateSource& source,
                                  const FixedDesign& fixed,
                                  util::ThreadPool& pool,
                                  const std::string& tag) {
  const std::string path = fresh_path(tag);
  std::remove((path + ".idx").c_str());
  store::CandidateStore store(path, store_scope(domain, config, 2024));
  JobOptions options;
  options.store = &store;
  options.pool = &pool;
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(tag + (warm ? " warm" : " cold"));
    source.reset();
    SearchJob job(domain, config, 2024, source, fixed, options);
    const SearchResult result = job.run_to_completion();
    EXPECT_EQ(result.n_probes_run == 0, warm);
    EXPECT_GT(result.n_fully_trained, 0u);
    expect_outcomes_are_records(result, source, fixed, config.num_candidates,
                                store);
  }
}

TEST(OneRecord, OutcomesAreTheirStoreRecords) {
  Fixture fx;
  SearchConfig config = tiny_config();
  const FixedDesign state_fixed{nullptr, &config.baseline_arch};
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  StateCandidateSource generated_states(generator);
  VectorCandidateSource states =
      with_clones(generated_states, config.num_candidates);
  expect_cold_and_warm_records(fx.domain, config, states, state_fixed,
                               fx.pool, "record_abr_batch");
  config.window_size = 7;
  expect_cold_and_warm_records(fx.domain, config, states, state_fixed,
                               fx.pool, "record_abr_window");

  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.2, 7);
  cc::CcConfig cc_config;
  cc_config.steps_per_episode = 30;
  cc_config.init_rate_mbps = 2.0;
  const cc::CcDomain cc_domain(dataset, cc_config);
  SearchConfig cc_search = tiny_config();
  cc_search.num_candidates = 16;
  const auto fixed_state =
      dsl::StateProgram::compile(cc_domain.baseline_state_source());
  gen::ArchGenerator arch_gen(gen::gpt4_profile(), gen::PromptStrategy{}, 77,
                              0.25);
  ArchCandidateSource generated_archs(arch_gen);
  VectorCandidateSource archs =
      with_clones(generated_archs, cc_search.num_candidates);
  expect_cold_and_warm_records(cc_domain, cc_search, archs,
                               FixedDesign{&fixed_state, nullptr}, fx.pool,
                               "record_cc_arch");
}

// ---- unified candidate stream ----------------------------------------------

TEST(CandidateSpecTest, MixedKindStreamRunsThroughOneFunnel) {
  Fixture fx;
  SearchConfig config = tiny_config();
  config.num_candidates = 8;
  config.full_train_top = 2;
  const auto fixed_state =
      dsl::StateProgram::compile(dsl::pensieve_state_source());

  // Four state programs and four architectures in one stream.
  gen::StateGenerator state_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                21);
  gen::ArchGenerator arch_gen(gen::gpt4_profile(), gen::PromptStrategy{}, 22,
                              0.25);
  std::vector<CandidateSpec> specs;
  StateCandidateSource states(state_gen);
  ArchCandidateSource archs(arch_gen);
  for (auto& spec : states.generate(4)) specs.push_back(std::move(spec));
  for (auto& spec : archs.generate(4)) specs.push_back(std::move(spec));
  VectorCandidateSource source(std::move(specs));

  JobOptions options;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 31, source,
                FixedDesign{&fixed_state, &config.baseline_arch}, options);
  const auto result = job.run_to_completion();
  EXPECT_EQ(result.n_total, 8u);
  EXPECT_GT(result.n_compiled, 0u);
  EXPECT_GT(result.n_fully_trained, 0u);
  // Kinds preserved end to end: arch candidates carry their spec, state
  // candidates their source.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(result.outcomes[i].arch.has_value());
  }
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_TRUE(result.outcomes[i].arch.has_value());
  }
}

TEST(CandidateSpecTest, FingerprintsMatchTheHistoricalStoreKeys) {
  const SearchConfig config = tiny_config();
  const auto state = dsl::StateProgram::compile(dsl::pensieve_state_source());
  const auto spec = CandidateSpec::state_program(
      "id", dsl::pensieve_state_source());
  const FixedDesign fixed{&state, &config.baseline_arch};
  EXPECT_EQ(fingerprint_of(spec, fixed),
            store::combine(
                store::fingerprint_state_source(dsl::pensieve_state_source()),
                store::fingerprint_arch(config.baseline_arch)));

  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.rnn_hidden = 24;
  const auto arch_spec = CandidateSpec::architecture("id2", arch, "wider");
  EXPECT_EQ(fingerprint_of(arch_spec, fixed),
            store::combine(
                store::fingerprint_arch(arch),
                store::fingerprint_state_source(state.source())));

  // Missing fixed halves are loud, not silent.
  EXPECT_THROW((void)fingerprint_of(spec, FixedDesign{&state, nullptr}),
               std::invalid_argument);
  EXPECT_THROW((void)fingerprint_of(arch_spec, FixedDesign{nullptr, nullptr}),
               std::invalid_argument);
}

/// The fingerprint_of hex of every candidate in `specs`, one per line.
std::string fingerprint_lines(const std::vector<CandidateSpec>& specs,
                              const FixedDesign& fixed) {
  std::string lines;
  for (const CandidateSpec& spec : specs) {
    lines += fingerprint_of(spec, fixed).hex();
    lines += '\n';
  }
  return lines;
}

TEST(CandidateSpecTest, GeneratorStreamFingerprintsMatchGoldens) {
  // Fingerprints are the store key: every journal ever written is addressed
  // by them, so a change to any byte here orphans those journals. The
  // digests below fold the keys of whole generator streams (state streams
  // of both domains on the Pensieve arch, arch streams on both domains'
  // baseline programs, under both profiles).
  const nn::ArchSpec arch = nn::ArchSpec::pensieve();
  const auto abr_state =
      dsl::StateProgram::compile(dsl::pensieve_state_source());
  const auto cc_state =
      dsl::StateProgram::compile(cc::default_cc_state_source());
  const FixedDesign on_arch{nullptr, &arch};
  struct Golden {
    gen::LlmProfile profile;
    const char* abr_states;
    const char* cc_states;
    const char* archs_on_abr;
    const char* archs_on_cc;
  };
  const Golden goldens[] = {
      {gen::gpt4_profile(), "c314ad9a12ef89ee310f1b495353fe0e",
       "443f51df51fd8bb356b25d6f7ead965e", "541eee5af80b6312e748075a36a4ce6e",
       "db73ac5006e2f6d4d045039db8e2bbe3"},
      {gen::gpt35_profile(), "aacb75eca6d5e698bb5f0789b518e902",
       "bb69fa344cdfb9ebf5b16b7c7ec37cea", "7766210016e0275ab5da821756ad078a",
       "4cb95f2405af70fcfa7e071d5ee74c47"},
  };
  const auto digest = [](const std::string& lines) {
    return store::fingerprint_text(lines).hex();
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.profile.name);
    gen::StateGenerator abr_gen(gen::abr_state_space(), golden.profile,
                                gen::PromptStrategy{}, 77);
    gen::StateGenerator cc_gen(gen::cc_state_space(), golden.profile,
                               gen::PromptStrategy{}, 77);
    StateCandidateSource abr_source(abr_gen);
    StateCandidateSource cc_source(cc_gen);
    EXPECT_EQ(digest(fingerprint_lines(abr_source.generate(256), on_arch)),
              golden.abr_states);
    EXPECT_EQ(digest(fingerprint_lines(cc_source.generate(256), on_arch)),
              golden.cc_states);

    gen::ArchGenerator arch_gen(golden.profile, gen::PromptStrategy{}, 77,
                                0.125);
    ArchCandidateSource arch_source(arch_gen);
    const std::vector<CandidateSpec> archs = arch_source.generate(96);
    const FixedDesign on_abr{&abr_state, nullptr};
    const FixedDesign on_cc{&cc_state, nullptr};
    EXPECT_EQ(digest(fingerprint_lines(archs, on_abr)), golden.archs_on_abr);
    EXPECT_EQ(digest(fingerprint_lines(archs, on_cc)), golden.archs_on_cc);
  }

  // A pooled job fingerprints on its pool with the fixed half hashed once;
  // the keys it journals must be exactly the public function's.
  Fixture fx;
  const FixedDesign fixed{&abr_state, &arch};
  gen::StateGenerator state_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  gen::ArchGenerator arch_gen(gen::gpt4_profile(), gen::PromptStrategy{}, 77,
                              0.125);
  StateCandidateSource states(state_gen);
  ArchCandidateSource archs(arch_gen);
  std::vector<CandidateSpec> specs = states.generate(64);
  for (auto& spec : archs.generate(32)) specs.push_back(std::move(spec));
  std::set<std::string> standalone;
  for (const CandidateSpec& spec : specs) {
    standalone.insert(fingerprint_of(spec, fixed).hex());
  }

  SearchConfig config = tiny_config();
  config.num_candidates = specs.size();
  VectorCandidateSource source(std::move(specs));
  store::CandidateStore store(fresh_path("pooled_fingerprints"),
                              store_scope(fx.domain, config, 5150));
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 5150, source, fixed, options);
  // Every candidate's pre-check verdict is journaled, so the journal holds
  // the key of every candidate once pre-check has run.
  (void)job.run_until(StageKind::kProbe);
  std::set<std::string> journaled;
  for (const auto& record : store.records()) {
    journaled.insert(record.fingerprint.hex());
  }
  EXPECT_EQ(journaled, standalone);
}

// ---- the baseline trains beside the cohort ---------------------------------

/// Bit-identical baselines: the test score's bits, the median curve, and
/// each session's rewards.
void expect_same_baseline(const rl::SessionResult& got,
                          const rl::SessionResult& want,
                          const std::string& label) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.test_score),
            std::bit_cast<std::uint64_t>(want.test_score))
      << label;
  EXPECT_EQ(got.failed, want.failed) << label;
  EXPECT_EQ(got.median_curve, want.median_curve) << label;
  EXPECT_EQ(got.curve_epochs, want.curve_epochs) << label;
  ASSERT_EQ(got.sessions.size(), want.sessions.size()) << label;
  for (std::size_t s = 0; s < want.sessions.size(); ++s) {
    EXPECT_EQ(got.sessions[s].train_rewards, want.sessions[s].train_rewards)
        << label << " session " << s;
    EXPECT_EQ(got.sessions[s].test_scores, want.sessions[s].test_scores)
        << label << " session " << s;
  }
}

SearchConfig baseline_config() {
  SearchConfig config = tiny_config();
  config.num_candidates = 10;
  return config;
}

TEST(BaselineBesideCohort, EqualsTrainBaselinePooledAndPoolless) {
  Fixture fx;
  const SearchConfig config = baseline_config();
  const rl::SessionResult expected =
      train_baseline(fx.domain, config, 4321, &fx.pool);
  ASSERT_FALSE(expected.failed);
  for (util::ThreadPool* pool : {&fx.pool, static_cast<util::ThreadPool*>(
                                               nullptr)}) {
    const std::string label = pool != nullptr ? "pooled" : "pool-less";
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  61);
    StateCandidateSource source(generator);
    std::optional<rl::SessionResult> cache;
    JobOptions options;
    options.pool = pool;
    options.baseline_cache = &cache;
    SearchJob job(fx.domain, config, 4321, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
    // Unknown at the baseline stage: nothing trains there.
    (void)job.run_until(StageKind::kSelect);
    EXPECT_FALSE(cache.has_value()) << label;
    const SearchResult result = job.run_to_completion();
    EXPECT_GT(result.n_full_trains_run, 0u) << label;
    expect_same_baseline(result.original, expected, label);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.original_score),
              std::bit_cast<std::uint64_t>(expected.test_score))
        << label;
    // The full-training stage filled the shared slot.
    ASSERT_TRUE(cache.has_value()) << label;
    expect_same_baseline(*cache, expected, label + " cache");
  }
}

TEST(BaselineBesideCohort, AKnownBaselineIsServedNotRetrained) {
  Fixture fx;
  const SearchConfig config = baseline_config();
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                61);
  StateCandidateSource source(generator);
  std::optional<rl::SessionResult> cache = rl::SessionResult{};
  cache->test_score = 12345.0;  // no training computes this
  JobOptions options;
  options.pool = &fx.pool;
  options.baseline_cache = &cache;
  SearchJob job(fx.domain, config, 4321, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  (void)job.run_until(StageKind::kSelect);
  EXPECT_EQ(job.result().original_score, 12345.0);  // served at kBaseline
  const SearchResult result = job.run_to_completion();
  EXPECT_GT(result.n_full_trains_run, 0u);
  EXPECT_EQ(result.original_score, 12345.0);
  EXPECT_EQ(result.original.test_score, 12345.0);
  EXPECT_TRUE(result.original.sessions.empty());
  EXPECT_EQ(cache->test_score, 12345.0);
}

TEST(BaselineBesideCohort, AnEarlyStopModelTrainsItAtTheFirstFold) {
  Fixture fx;
  const SearchConfig config = baseline_config();
  const rl::SessionResult expected =
      train_baseline(fx.domain, config, 4321, &fx.pool);
  // The model normalizes probe curves by the baseline's score, so the
  // first fold that judges a probe needs it.
  const filter::EarlyStopModel model(filter::EarlyStopMethod::kHeuristicMax,
                                     filter::EarlyStopConfig{}, 1);
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                61);
  StateCandidateSource source(generator);
  std::optional<rl::SessionResult> cache;
  JobOptions options;
  options.pool = &fx.pool;
  options.baseline_cache = &cache;
  options.early_stop_model = &model;
  SearchJob job(fx.domain, config, 4321, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  (void)job.run_until(StageKind::kFullTrain);
  ASSERT_GT(job.result().n_probes_run, 0u);
  ASSERT_TRUE(cache.has_value());
  expect_same_baseline(*cache, expected, "after the folds");
  const SearchResult result = job.run_to_completion();
  expect_same_baseline(result.original, expected, "result");
}

TEST(BaselineBesideCohort, LeaseWorkersNeverTrainIt) {
  Fixture fx;
  const SearchConfig config = baseline_config();
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                61);
  StateCandidateSource source(generator);
  std::optional<rl::SessionResult> cache;
  JobOptions options;
  options.pool = &fx.pool;
  options.baseline_cache = &cache;
  SearchJob job(fx.domain, config, 4321, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  const SearchResult& partial = job.run_until(StageKind::kBaseline);
  EXPECT_GT(partial.n_probes_run, 0u);
  EXPECT_FALSE(cache.has_value());
}

// ---- degenerate-baseline improvement ---------------------------------------

TEST(SearchResultTest, ImprovementDefinesDegenerateBaseline) {
  SearchResult result;
  // No best: no improvement, whatever the baseline.
  EXPECT_EQ(result.improvement(), 0.0);

  // Normal case: relative to |original|.
  result.best_index = 0;
  result.best_score = -1.0;
  result.original_score = -2.0;
  EXPECT_DOUBLE_EQ(result.improvement(), 0.5);

  // Degenerate baseline (original == 0): falls back to the absolute delta
  // instead of reporting zero improvement for a valid best.
  result.original_score = 0.0;
  result.best_score = 3.5;
  EXPECT_DOUBLE_EQ(result.improvement(), 3.5);
  result.best_score = -0.25;
  EXPECT_DOUBLE_EQ(result.improvement(), -0.25);
}

}  // namespace
}  // namespace nada::search
