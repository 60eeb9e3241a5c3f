// Batch-vs-streaming equivalence for the rolling-window funnel:
//
//   * same seeds => identical rankings (the fully-trained cohort, scores,
//     curves, and the best candidate) whether the stream is materialized
//     up front (window_size == 0) or pulled through rolling windows —
//     for ABR and CC domains, with and without a store, serial and split
//     across fingerprint-range workers,
//   * same store journal record SET: only the record order may differ
//     (windows interleave check/probe records), so journals compare as
//     sorted JSONL export lines, byte-identical per line,
//   * constant-memory mechanics: window events fire with the right
//     sizes/positions, the per-candidate stages cycle per window, and the
//     running selection never exceeds full_train_top,
//   * one selection path: early stops fire at the probe stage's fold in
//     both modes, and a retained clone whose leader stopped trains itself,
//   * streaming resume: a run interrupted after the per-candidate stages
//     finishes on the journal alone (zero re-probes),
//   * the pull contract: a pooled job asks its source exactly what a
//     pool-less job asks, in the same order, with every pull after the
//     first on one puller thread of its own; a pull's error surfaces from
//     its own window's generate stage, and the destructor waits for a
//     pull in flight; a warm window screens (fingerprints and store hits)
//     while every worker of the job's pool is busy.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cc/cc_domain.h"
#include "dsl/state_program.h"
#include "env/abr_domain.h"
#include "filter/earlystop.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/observer.h"
#include "search/search_job.h"
#include "search/shard_runner.h"
#include "store/shard.h"
#include "trace/generator.h"
#include "util/fs.h"
#include "video/video.h"

#include "journal_lines.h"

namespace nada::search {
namespace {

std::string fresh_path(const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "nada_stream_" + tag + ".nsb";
  std::remove(path.c_str());
  return path;
}

std::string fresh_dir(const std::string& tag) {
  return ::testing::TempDir() + "nada_stream_" + tag;
}

SearchConfig tiny_config(std::size_t window_size) {
  SearchConfig config;
  config.num_candidates = 30;
  config.early_epochs = 8;
  config.full_train_top = 3;
  config.seeds = 2;
  config.train.epochs = 24;
  config.train.test_interval = 8;
  config.train.max_eval_traces = 4;
  config.window_size = window_size;
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

/// Runs one state search over `space` with the given window mode;
/// journals into `store_path` when non-empty.
SearchResult run_state_search(const env::TaskDomain& domain,
                              const SearchConfig& config, std::uint64_t seed,
                              std::uint64_t gen_seed,
                              const std::string& store_path,
                              util::ThreadPool* pool,
                              const gen::StateSpace& space,
                              Observer* observer = nullptr) {
  gen::StateGenerator generator(space, gen::gpt4_profile(),
                                gen::PromptStrategy{}, gen_seed);
  StateCandidateSource source(generator);
  std::optional<store::CandidateStore> store;
  JobOptions options;
  options.pool = pool;
  if (!store_path.empty()) {
    store.emplace(store_path, store_scope(domain, config, seed));
    options.store = &*store;
  }
  SearchJob job(domain, config, seed, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  job.add_observer(observer);
  return job.run_to_completion();
}

/// The trained cohort as a comparable value: stream position, id, score,
/// and the full probe curve (bitwise).
using TrainedRow = std::tuple<std::size_t, std::string, double,
                              std::vector<double>>;
std::vector<TrainedRow> trained_rows(const SearchResult& result) {
  std::vector<TrainedRow> rows;
  for (const auto& outcome : result.outcomes) {
    if (!outcome.fully_trained) continue;
    rows.emplace_back(outcome.stream_index, outcome.id, outcome.test_score,
                      outcome.early_rewards);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The equivalence a streaming run owes a batch run: identical funnel
/// counters, baseline, best candidate, and trained cohort. (n_probes_run
/// and cache-hit counters are deliberately NOT compared: without a store,
/// streaming re-probes cross-window duplicates that batch dedups in
/// memory — identical results, more executions.)
void expect_equivalent(const SearchResult& batch, const SearchResult& stream) {
  EXPECT_EQ(batch.n_total, stream.n_total);
  EXPECT_EQ(batch.n_compiled, stream.n_compiled);
  EXPECT_EQ(batch.n_normalized, stream.n_normalized);
  EXPECT_EQ(batch.n_early_stopped, stream.n_early_stopped);
  EXPECT_EQ(batch.n_fully_trained, stream.n_fully_trained);
  EXPECT_DOUBLE_EQ(batch.original_score, stream.original_score);
  ASSERT_EQ(batch.has_best(), stream.has_best());
  if (batch.has_best()) {
    EXPECT_DOUBLE_EQ(batch.best_score, stream.best_score);
    EXPECT_EQ(batch.outcomes[batch.best_index].id,
              stream.outcomes[stream.best_index].id);
    EXPECT_EQ(batch.outcomes[batch.best_index].stream_index,
              stream.outcomes[stream.best_index].stream_index);
  }
  EXPECT_EQ(trained_rows(batch), trained_rows(stream));
}

// ---- ABR: store-backed and store-less equivalence ---------------------------

TEST(StreamingEquivalence, AbrSearchMatchesBatchAndJournalsSameRecords) {
  Fixture fx;
  const std::string batch_path = fresh_path("abr_batch");
  const std::string stream_path = fresh_path("abr_stream");

  const auto batch =
      run_state_search(fx.domain, tiny_config(0), 1234, 77, batch_path,
                       &fx.pool, gen::abr_state_space());
  const auto stream =
      run_state_search(fx.domain, tiny_config(7), 1234, 77, stream_path,
                       &fx.pool, gen::abr_state_space());

  expect_equivalent(batch, stream);
  // Streaming keeps only the retained candidates in memory/result...
  EXPECT_EQ(batch.outcomes.size(), batch.n_total);
  EXPECT_LE(stream.outcomes.size(), tiny_config(7).full_train_top);
  // ...but journals the identical record set: per line byte-identical,
  // only the order differs (windows interleave checked/probed records).
  EXPECT_EQ(test::sorted_journal_lines(batch_path),
            test::sorted_journal_lines(stream_path));
  EXPECT_NE(test::sorted_journal_lines(batch_path), std::vector<std::string>{});

  // Warm streaming rerun: everything from the journal, nothing executed.
  const auto warm =
      run_state_search(fx.domain, tiny_config(7), 1234, 77, stream_path,
                       &fx.pool, gen::abr_state_space());
  EXPECT_EQ(warm.n_probes_run, 0u);
  EXPECT_EQ(warm.n_full_trains_run, 0u);
  expect_equivalent(batch, warm);
}

TEST(StreamingEquivalence, MatchesBatchWithoutStore) {
  Fixture fx;
  const auto batch = run_state_search(fx.domain, tiny_config(0), 42, 5, "",
                                      &fx.pool, gen::abr_state_space());
  const auto stream = run_state_search(fx.domain, tiny_config(7), 42, 5, "",
                                       &fx.pool, gen::abr_state_space());
  expect_equivalent(batch, stream);
}

TEST(StreamingEquivalence, WindowEdgeSizes) {
  Fixture fx;
  SearchConfig batch_config = tiny_config(0);
  batch_config.num_candidates = 12;
  batch_config.full_train_top = 2;
  const auto batch = run_state_search(fx.domain, batch_config, 9, 3, "",
                                      &fx.pool, gen::abr_state_space());
  // window == 1 (maximal folding), window not dividing the stream, and
  // window larger than the whole stream (one rolling window).
  for (const std::size_t window : {std::size_t{1}, std::size_t{5},
                                   std::size_t{64}}) {
    SearchConfig config = batch_config;
    config.window_size = window;
    const auto stream = run_state_search(fx.domain, config, 9, 3, "",
                                         &fx.pool, gen::abr_state_space());
    expect_equivalent(batch, stream);
  }
}

// ---- CC domain through the streaming funnel ---------------------------------

TEST(StreamingEquivalence, CcSearchMatchesBatchAndJournalsSameRecords) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.2, 1234);
  cc::CcConfig cc_config;
  cc_config.steps_per_episode = 30;
  cc_config.init_rate_mbps = 2.0;
  const cc::CcDomain domain(dataset, cc_config);
  util::ThreadPool pool(8);

  SearchConfig config = tiny_config(0);
  config.num_candidates = 16;
  config.full_train_top = 2;
  const std::string batch_path = fresh_path("cc_batch");
  const std::string stream_path = fresh_path("cc_stream");
  const auto batch = run_state_search(domain, config, 11, 8, batch_path,
                                      &pool, gen::cc_state_space());
  config.window_size = 5;
  const auto stream = run_state_search(domain, config, 11, 8, stream_path,
                                       &pool, gen::cc_state_space());
  expect_equivalent(batch, stream);
  EXPECT_EQ(test::sorted_journal_lines(batch_path),
            test::sorted_journal_lines(stream_path));
}

// ---- early-stop model through the fold --------------------------------------

/// Stream positions of the early-stop events, which must all fire at the
/// probe stage's fold, each candidate at most once.
std::vector<std::size_t> early_stop_positions(
    const RecordingObserver& recording) {
  std::vector<std::size_t> positions;
  for (const auto& event : recording.candidates) {
    if (event.type != CandidateEventType::kEarlyStopped) continue;
    EXPECT_EQ(event.stage, StageKind::kProbe) << event.id;
    positions.push_back(event.index);
  }
  std::sort(positions.begin(), positions.end());
  EXPECT_EQ(std::adjacent_find(positions.begin(), positions.end()),
            positions.end());
  return positions;
}

TEST(StreamingEquivalence, EarlyStopModelVerdictsMatchBatch) {
  // Both modes apply the model's keep() verdicts at the fold (with the
  // baseline trained lazily at the first fold that needs it): batch folds
  // its one window, streaming each of its windows. Same model, same seeds
  // => the verdicts, counters, and rankings must agree.
  Fixture fx;
  filter::EarlyStopConfig es_config;
  filter::EarlyStopModel model(filter::EarlyStopMethod::kHeuristicMax,
                               es_config, 1);
  // A tiny corpus whose top design pins the tuned threshold near -0.5 (in
  // baseline-normalized reward units): weak probes stop, decent ones pass.
  std::vector<filter::DesignRecord> corpus;
  for (int i = 0; i < 10; ++i) {
    filter::DesignRecord record;
    record.id = std::to_string(i);
    record.final_score = i == 0 ? 100.0 : static_cast<double>(i);
    record.early_rewards = {-2.0, i == 0 ? -0.5 : -1.5};
    corpus.push_back(record);
  }
  model.fit(corpus);

  auto run = [&](std::size_t window, RecordingObserver& recording) {
    SearchConfig config = tiny_config(window);
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  77);
    StateCandidateSource source(generator);
    JobOptions options;
    options.pool = &fx.pool;
    options.early_stop_model = &model;
    SearchJob job(fx.domain, config, 1234, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
    job.add_observer(&recording);
    return job.run_to_completion();
  };
  RecordingObserver batch_recording;
  RecordingObserver stream_recording;
  const auto batch = run(0, batch_recording);
  const auto stream = run(7, stream_recording);
  expect_equivalent(batch, stream);
  // The model actually discriminated (otherwise this test pins nothing).
  EXPECT_GT(batch.n_early_stopped, 0u);

  // One early-stop event per stopped or evicted candidate, at the probe
  // stage in both modes, and the same positions in both.
  const auto batch_stopped = early_stop_positions(batch_recording);
  const auto stream_stopped = early_stop_positions(stream_recording);
  EXPECT_EQ(batch_stopped.size(), batch.n_early_stopped);
  EXPECT_EQ(stream_stopped.size(), stream.n_early_stopped);
  EXPECT_EQ(batch_stopped, stream_stopped);
  // Batch mode keeps every outcome: the flagged ones are exactly the
  // event positions, and none of them trained.
  std::vector<std::size_t> flagged;
  for (const auto& outcome : batch.outcomes) {
    if (!outcome.early_stopped) continue;
    flagged.push_back(outcome.stream_index);
    EXPECT_FALSE(outcome.fully_trained) << outcome.id;
  }
  EXPECT_EQ(flagged, batch_stopped);
}

TEST(StreamingEquivalence, RetainedCloneOfAStoppedLeaderIsTrained) {
  // Comments never reach the canonical form, so the second candidate is an
  // in-stream clone of the first: one fingerprint, two texts. A text model
  // can stop the leader and keep the clone; the clone then trains as its
  // own leader, whatever the window size.
  Fixture fx;
  const std::string leader_text = "# leader\n" + dsl::pensieve_state_source();
  const std::string clone_text = "# clone\n" + dsl::pensieve_state_source();
  filter::EarlyStopConfig es_config;
  es_config.train.epochs = 400;
  es_config.train.learning_rate = 1e-2;
  es_config.threshold_margin = 0.0;
  filter::EarlyStopModel model(filter::EarlyStopMethod::kTextOnly, es_config,
                               1);
  // The clone's text carries the top designs, the leader's the rest.
  std::vector<filter::DesignRecord> corpus;
  for (int i = 0; i < 25; ++i) {
    filter::DesignRecord record;
    record.id = std::to_string(i);
    record.source_text = i < 5 ? clone_text : leader_text;
    record.early_rewards = {0.0};
    record.final_score = i < 5 ? 100.0 - i : static_cast<double>(i);
    corpus.push_back(record);
  }
  model.fit(corpus);
  const auto keeps = [&model](const std::string& text) {
    filter::DesignRecord record;
    record.source_text = text;
    record.early_rewards = {0.0};
    return model.keep(record);
  };
  ASSERT_TRUE(keeps(clone_text));
  ASSERT_FALSE(keeps(leader_text));

  const std::vector<CandidateSpec> specs = {
      CandidateSpec::state_program("leader", leader_text),
      CandidateSpec::state_program("clone", clone_text)};
  SearchConfig config = tiny_config(0);
  config.num_candidates = 2;
  config.full_train_top = 1;
  const FixedDesign fixed{nullptr, &config.baseline_arch};
  ASSERT_EQ(fingerprint_of(specs[0], fixed), fingerprint_of(specs[1], fixed));

  auto run = [&](std::size_t window) {
    config.window_size = window;
    VectorCandidateSource source(specs);
    JobOptions options;
    options.pool = &fx.pool;
    options.early_stop_model = &model;
    SearchJob job(fx.domain, config, 1234, source, fixed, options);
    return job.run_to_completion();
  };
  const auto batch = run(0);
  const auto stream = run(1);
  for (const SearchResult* result : {&batch, &stream}) {
    EXPECT_EQ(result->n_early_stopped, 1u);
    EXPECT_EQ(result->n_full_trains_run, 1u);
    ASSERT_TRUE(result->has_best());
    const CandidateOutcome& best = result->outcomes[result->best_index];
    EXPECT_EQ(best.id, "clone");
    EXPECT_TRUE(best.fully_trained);
  }
  expect_equivalent(batch, stream);
}

// ---- range-split streaming workers ------------------------------------------

TEST(StreamingEquivalence, ShardedStreamingWorkersMatchBatchSingleProcess) {
  Fixture fx;
  const SearchConfig batch_config = tiny_config(0);
  const std::string single_path = fresh_path("shard_single");
  const auto single =
      run_state_search(fx.domain, batch_config, 1234, 77, single_path,
                       &fx.pool, gen::abr_state_space());

  // Three workers, each streaming its ShardPlan range in windows of 5,
  // then the driver's merge+rank (also streaming).
  SearchConfig stream_config = tiny_config(5);
  ShardRunnerConfig shard_config;
  shard_config.store_dir = fresh_dir("shards");
  ShardRunner runner(fx.domain, stream_config, 1234, shard_config, &fx.pool);
  const store::ShardPlan plan(3);
  std::vector<std::string> journals;
  std::size_t in_shard_total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    journals.push_back(shard_config.store_dir + "/range-" +
                       std::to_string(i) + ".nsb");
    std::remove(journals.back().c_str());
    gen::StateGenerator worker_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                   77);
    StateCandidateSource worker_source(worker_gen);
    const auto worker_result = runner.run_range(
        plan.range(i), journals.back(), worker_source,
        FixedDesign{nullptr, &stream_config.baseline_arch});
    in_shard_total += worker_result.n_total - worker_result.n_out_of_shard;
    EXPECT_EQ(worker_result.n_fully_trained, 0u);
  }
  EXPECT_EQ(in_shard_total, stream_config.num_candidates);

  std::remove(runner.merged_store_path().c_str());
  gen::StateGenerator driver_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                 77);
  StateCandidateSource driver_source(driver_gen);
  const auto merged = runner.merge_and_rank_paths(
      journals, driver_source,
      FixedDesign{nullptr, &stream_config.baseline_arch});
  EXPECT_EQ(merged.n_probes_run, 0u);
  expect_equivalent(single, merged);
  EXPECT_EQ(test::sorted_journal_lines(single_path),
            test::sorted_journal_lines(runner.merged_store_path()));
}

// ---- mixed-kind streams -----------------------------------------------------

TEST(StreamingEquivalence, MixedKindStreamMatchesBatch) {
  Fixture fx;
  SearchConfig config = tiny_config(0);
  config.num_candidates = 8;
  config.full_train_top = 2;
  const auto fixed_state =
      dsl::StateProgram::compile(dsl::pensieve_state_source());

  auto make_source = [] {
    gen::StateGenerator state_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                  21);
    gen::ArchGenerator arch_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                22, 0.25);
    std::vector<CandidateSpec> specs;
    StateCandidateSource states(state_gen);
    ArchCandidateSource archs(arch_gen);
    for (auto& spec : states.generate(4)) specs.push_back(std::move(spec));
    for (auto& spec : archs.generate(4)) specs.push_back(std::move(spec));
    return VectorCandidateSource(std::move(specs));
  };

  JobOptions options;
  options.pool = &fx.pool;
  auto batch_source = make_source();
  SearchJob batch_job(fx.domain, config, 31, batch_source,
                      FixedDesign{&fixed_state, &config.baseline_arch},
                      options);
  const auto batch = batch_job.run_to_completion();

  config.window_size = 3;
  auto stream_source = make_source();
  SearchJob stream_job(fx.domain, config, 31, stream_source,
                       FixedDesign{&fixed_state, &config.baseline_arch},
                       options);
  const auto stream = stream_job.run_to_completion();
  expect_equivalent(batch, stream);
  // Retained outcomes keep their kind-specific payloads.
  for (const auto& outcome : stream.outcomes) {
    EXPECT_EQ(outcome.arch.has_value(), outcome.stream_index >= 4);
  }
}

// ---- window lifecycle -------------------------------------------------------

TEST(StreamingWindows, StagesCycleAndWindowEventsCoverTheStream) {
  Fixture fx;
  const SearchConfig config = tiny_config(7);  // 30 candidates: 7,7,7,7,2
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  StateCandidateSource source(generator);
  JobOptions options;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 1234, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  RecordingObserver recording;
  job.add_observer(&recording);

  // The per-candidate stages cycle once per window.
  std::vector<StageKind> stages;
  while (!job.done()) {
    stages.push_back(job.next_stage_kind());
    job.next_stage();
  }
  std::vector<StageKind> expected;
  for (int w = 0; w < 5; ++w) {
    expected.insert(expected.end(), {StageKind::kGenerate,
                                     StageKind::kPrecheck, StageKind::kProbe});
  }
  expected.insert(expected.end(), {StageKind::kBaseline, StageKind::kSelect,
                                   StageKind::kFullTrain, StageKind::kRank});
  EXPECT_EQ(stages, expected);

  // Window events: 5 windows, first positions 0,7,14,21,28, sizes
  // 7,7,7,7,2, running selection never exceeding full_train_top.
  ASSERT_EQ(recording.window_starts.size(), 5u);
  ASSERT_EQ(recording.windows.size(), 5u);
  std::size_t covered = 0;
  for (std::size_t w = 0; w < 5; ++w) {
    EXPECT_EQ(recording.window_starts[w].first, w);
    EXPECT_EQ(recording.window_starts[w].second, covered);
    EXPECT_EQ(recording.windows[w].index, w);
    EXPECT_EQ(recording.windows[w].first, covered);
    EXPECT_EQ(recording.windows[w].size, w < 4 ? 7u : 2u);
    EXPECT_LE(recording.windows[w].retained, config.full_train_top);
    EXPECT_GE(recording.windows[w].seconds, 0.0);
    covered += recording.windows[w].size;
  }
  EXPECT_EQ(covered, config.num_candidates);

  // Candidate coverage survives the windowing: every candidate entered,
  // early-stop events carry stream positions, trained events fired.
  EXPECT_EQ(recording.count(CandidateEventType::kEntered),
            job.result().n_total);
  EXPECT_EQ(recording.count(CandidateEventType::kEarlyStopped),
            job.result().n_early_stopped);
  EXPECT_EQ(recording.count(CandidateEventType::kTrained),
            job.result().n_full_trains_run);

  // A batch job is one window spanning the stream.
  const SearchConfig batch_config = tiny_config(0);
  gen::StateGenerator batch_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  StateCandidateSource batch_source(batch_gen);
  SearchJob batch_job(fx.domain, batch_config, 1234, batch_source,
                      FixedDesign{nullptr, &batch_config.baseline_arch},
                      options);
  RecordingObserver batch_recording;
  batch_job.add_observer(&batch_recording);
  (void)batch_job.run_to_completion();
  ASSERT_EQ(batch_recording.window_starts.size(), 1u);
  EXPECT_EQ(batch_recording.window_starts[0],
            (std::pair<std::size_t, std::size_t>{0, 0}));
  ASSERT_EQ(batch_recording.windows.size(), 1u);
  EXPECT_EQ(batch_recording.windows[0].index, 0u);
  EXPECT_EQ(batch_recording.windows[0].first, 0u);
  EXPECT_EQ(batch_recording.windows[0].size, batch_config.num_candidates);
  EXPECT_LE(batch_recording.windows[0].retained, batch_config.full_train_top);
}

TEST(StreamingWindows, BatchJobOverAnEmptySourceIsOneEmptyWindow) {
  Fixture fx;
  const SearchConfig config = tiny_config(0);
  VectorCandidateSource source({});
  JobOptions options;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 3, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  RecordingObserver recording;
  job.add_observer(&recording);
  std::vector<StageKind> stages;
  while (!job.done()) {
    stages.push_back(job.next_stage_kind());
    job.next_stage();
  }
  EXPECT_EQ(stages, (std::vector<StageKind>{
                        StageKind::kGenerate, StageKind::kBaseline,
                        StageKind::kSelect, StageKind::kFullTrain,
                        StageKind::kRank}));
  ASSERT_EQ(recording.windows.size(), 1u);
  EXPECT_EQ(recording.windows[0].index, 0u);
  EXPECT_EQ(recording.windows[0].size, 0u);
  EXPECT_EQ(job.result().n_total, 0u);
  EXPECT_TRUE(job.result().outcomes.empty());
  EXPECT_FALSE(job.result().has_best());
}

TEST(StreamingWindows, ShortSourceExhaustsCleanly) {
  Fixture fx;
  SearchConfig config = tiny_config(4);
  config.num_candidates = 30;
  config.full_train_top = 2;
  // Only 10 candidates exist: windows of 4, 4, 2, then straight to the
  // cohort stages.
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                13);
  StateCandidateSource full(generator);
  VectorCandidateSource source(full.generate(10));
  JobOptions options;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 2, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  RecordingObserver recording;
  job.add_observer(&recording);
  const auto result = job.run_to_completion();
  EXPECT_EQ(result.n_total, 10u);
  ASSERT_EQ(recording.windows.size(), 3u);
  EXPECT_EQ(recording.windows[2].size, 2u);
}

// ---- streaming resume -------------------------------------------------------

TEST(StreamingResume, InterruptedStreamingRunFinishesFromTheJournal) {
  Fixture fx;
  const SearchConfig config = tiny_config(6);
  const std::string path = fresh_path("resume");
  store::CandidateStore store(path, store_scope(fx.domain, config, 4321));
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;

  // "Interrupted" run: every window's pre-checks and probes journal, then
  // the process dies before the cohort stages.
  gen::StateGenerator gen1(gen::gpt4_profile(), gen::PromptStrategy{}, 88);
  StateCandidateSource source1(gen1);
  SearchJob partial(fx.domain, config, 4321, source1,
                    FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto& partial_result = partial.run_until(StageKind::kBaseline);
  EXPECT_GT(partial_result.n_probes_run, 0u);

  // resume(): rewinds the (spent) source and serves every journaled stage.
  SearchJob resumed(fx.domain, config, 4321, source1,
                    FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto warm = resumed.resume();
  EXPECT_EQ(warm.n_probes_run, 0u);

  // The finished streaming run equals a batch run of the same seeds.
  SearchConfig batch_config = config;
  batch_config.window_size = 0;
  const std::string batch_path = fresh_path("resume_batch");
  const auto batch =
      run_state_search(fx.domain, batch_config, 4321, 88, batch_path,
                       &fx.pool, gen::abr_state_space());
  expect_equivalent(batch, warm);
  EXPECT_EQ(test::sorted_journal_lines(batch_path),
            test::sorted_journal_lines(path));
}

// ---- the pull contract ------------------------------------------------------

/// A StateCandidateSource that logs every generate() call (the calling
/// thread and the n asked). It can run dry after `available` candidates,
/// throw on one call, or sleep in every call after the first.
class RecordingSource final : public CandidateSource {
 public:
  explicit RecordingSource(std::size_t available = SIZE_MAX)
      : available_(available) {}

  [[nodiscard]] std::vector<CandidateSpec> generate(std::size_t n) override {
    calls.emplace_back(std::this_thread::get_id(), n);
    if (calls.size() - 1 == throw_on_call) {
      throw std::runtime_error("source failed on call " +
                               std::to_string(throw_on_call));
    }
    if (calls.size() > 1) std::this_thread::sleep_for(delay);
    const std::size_t give = std::min(n, available_ - handed);
    handed += give;
    auto specs = inner_.generate(give);
    ++returned;
    return specs;
  }
  void reset() override {
    inner_.reset();
    handed = 0;
  }

  std::size_t throw_on_call = SIZE_MAX;  ///< 0-based index of the call
  std::chrono::milliseconds delay{0};
  std::vector<std::pair<std::thread::id, std::size_t>> calls;
  std::size_t returned = 0;  ///< calls that came back with specs
  std::size_t handed = 0;    ///< candidates handed out

 private:
  gen::StateGenerator generator_{gen::gpt4_profile(), gen::PromptStrategy{},
                                 77};
  StateCandidateSource inner_{generator_};
  std::size_t available_;
};

/// This process's thread ids (Linux): how a test sees a job start one.
/// Compared as sets, so a thread that exits during a run (one a previous
/// job joined, still listed) cannot cancel out one the run started.
std::set<std::string> thread_ids() {
  std::set<std::string> ids;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(task.path().filename().string());
  }
  return ids;
}

/// A config whose probes are as cheap as they come: these tests pin the
/// pulls, not what the funnel computes from them.
SearchConfig pull_config(std::size_t num_candidates, std::size_t window) {
  SearchConfig config = tiny_config(window);
  config.num_candidates = num_candidates;
  config.full_train_top = 2;
  config.early_epochs = 2;
  return config;
}

TEST(StreamingPulls, PooledJobAsksWhatAPoolLessJobAsksFromOnePuller) {
  Fixture fx;
  struct Case {
    const char* name;
    std::size_t num_candidates;
    std::size_t window;
    std::size_t available;
    std::vector<std::size_t> asks;
    std::size_t pulled;
  };
  const Case cases[] = {
      {"window divides the stream", 12, 4, SIZE_MAX, {4, 4, 4}, 12},
      {"window does not divide it", 12, 5, SIZE_MAX, {5, 5, 2}, 12},
      {"source runs dry mid-window", 20, 4, 10, {4, 4, 4}, 10},
      {"source runs dry at a boundary", 20, 4, 8, {4, 4, 4}, 8},
  };
  const std::thread::id stepping = std::this_thread::get_id();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SearchConfig config = pull_config(c.num_candidates, c.window);
    // The asks of one job, and how many threads it started: the ids
    // present after it that were absent before.
    auto run = [&](util::ThreadPool* pool, RecordingSource& source) {
      JobOptions options;
      options.pool = pool;
      const std::set<std::string> threads_before = thread_ids();
      SearchJob job(fx.domain, config, 5, source,
                    FixedDesign{nullptr, &config.baseline_arch}, options);
      (void)job.run_until(StageKind::kBaseline);
      EXPECT_EQ(job.result().n_total, c.pulled);
      std::vector<std::size_t> asks;
      for (const auto& call : source.calls) asks.push_back(call.second);
      std::size_t started = 0;
      for (const std::string& id : thread_ids()) {
        if (!threads_before.contains(id)) ++started;
      }
      return std::make_pair(asks, started);
    };

    RecordingSource inline_source(c.available);
    const auto [inline_asks, inline_threads] = run(nullptr, inline_source);
    EXPECT_EQ(inline_asks, c.asks);
    EXPECT_EQ(inline_source.handed, c.pulled);
    EXPECT_EQ(inline_threads, 0u);
    for (const auto& call : inline_source.calls) {
      EXPECT_EQ(call.first, stepping);
    }

    RecordingSource pooled_source(c.available);
    const auto [pooled_asks, pooled_threads] = run(&fx.pool, pooled_source);
    EXPECT_EQ(pooled_asks, inline_asks);
    EXPECT_EQ(pooled_source.handed, inline_source.handed);
    EXPECT_EQ(pooled_threads, 1u);
    ASSERT_GE(pooled_source.calls.size(), 2u);
    EXPECT_EQ(pooled_source.calls[0].first, stepping);
    const std::thread::id puller = pooled_source.calls[1].first;
    EXPECT_NE(puller, stepping);
    for (std::size_t i = 1; i < pooled_source.calls.size(); ++i) {
      EXPECT_EQ(pooled_source.calls[i].first, puller) << "call " << i;
    }
  }
}

TEST(StreamingPulls, APullThatThrowsSurfacesFromItsOwnWindow) {
  // With a pool, window 2 is pulled while window 1 is screened; its error
  // must still come from window 2's generate stage, as without a pool.
  Fixture fx;
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 &fx.pool}) {
    SCOPED_TRACE(pool == nullptr ? "pool-less" : "pooled");
    const SearchConfig config = pull_config(8, 2);
    RecordingSource source;
    source.throw_on_call = 2;
    JobOptions options;
    options.pool = pool;
    SearchJob job(fx.domain, config, 5, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
    for (int window = 0; window < 2; ++window) {
      for (const StageKind stage : {StageKind::kGenerate,
                                    StageKind::kPrecheck, StageKind::kProbe}) {
        ASSERT_EQ(job.next_stage_kind(), stage) << "window " << window;
        ASSERT_NO_THROW(job.next_stage()) << "window " << window;
      }
    }
    ASSERT_EQ(job.next_stage_kind(), StageKind::kGenerate);
    EXPECT_THROW(job.next_stage(), std::runtime_error);
    EXPECT_EQ(job.next_stage_kind(), StageKind::kGenerate);
    EXPECT_EQ(job.result().n_total, 4u);
    EXPECT_EQ(source.calls.size(), 3u);
  }
}

TEST(StreamingPulls, DestroyingAJobWaitsForThePullInFlight) {
  Fixture fx;
  const SearchConfig config = pull_config(12, 4);
  RecordingSource source;
  source.delay = std::chrono::milliseconds(200);
  {
    JobOptions options;
    options.pool = &fx.pool;
    SearchJob job(fx.domain, config, 5, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
    job.next_stage();  // window 0's generate: window 1 is now pulled ahead
  }
  // The abandoned job pulled one window it never screened, and its
  // destructor waited for that pull to come back.
  EXPECT_EQ(source.calls.size(), 2u);
  EXPECT_EQ(source.returned, 2u);
  EXPECT_EQ(source.handed, 8u);
}

/// Holds every worker of a pool until the gate opens, or at most until a
/// deadline: a test sees what a job does while the workers are busy, and
/// fails instead of hanging when the job waits for them.
class Gate {
 public:
  void hold(util::ThreadPool& pool, std::chrono::seconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (std::size_t w = 0; w < pool.size(); ++w) {
      (void)pool.submit([this, deadline] {
        std::unique_lock lock(mutex_);
        ++held_;
        cv_.notify_all();
        cv_.wait_until(lock, deadline, [this] { return open_; });
        open_ = true;  // a timeout opens the gate for every worker
        cv_.notify_all();
      });
    }
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return held_ == pool.size(); });
  }
  void open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  [[nodiscard]] bool is_open() {
    std::lock_guard lock(mutex_);
    return open_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t held_ = 0;
  bool open_ = false;
};

TEST(StreamingPulls, WarmWindowScreensWhileEveryPoolWorkerIsBusy) {
  // A warm window's fingerprints and store hits come from the generate
  // stage's pass, which the stepping thread works itself: with every worker
  // of the job's pool held, generate and pre-check still finish, and every
  // candidate of the window is served from the store.
  Fixture fx;
  const SearchConfig config = pull_config(16, 8);
  const std::string path = fresh_path("warm_busy_pool");
  store::CandidateStore store(path, store_scope(fx.domain, config, 5));
  {
    RecordingSource source;
    JobOptions options;
    options.store = &store;
    options.pool = &fx.pool;
    SearchJob cold(fx.domain, config, 5, source,
                   FixedDesign{nullptr, &config.baseline_arch}, options);
    (void)cold.run_until(StageKind::kBaseline);
  }

  Gate gate;  // declared before the pool, which waits for its workers
  util::ThreadPool pool(2);
  gate.hold(pool, std::chrono::seconds(5));
  RecordingSource source;
  JobOptions options;
  options.store = &store;
  options.pool = &pool;
  SearchJob warm(fx.domain, config, 5, source,
                 FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto start = std::chrono::steady_clock::now();
  for (const StageKind stage : {StageKind::kGenerate, StageKind::kPrecheck}) {
    EXPECT_EQ(warm.next_stage_kind(), stage);
    warm.next_stage();
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_FALSE(gate.is_open())
      << "generate and pre-check waited " << seconds
      << " s for the held workers";
  EXPECT_EQ(warm.result().n_total, 8u);
  EXPECT_EQ(warm.result().n_precheck_cache_hits, 8u);
  gate.open();
}

}  // namespace
}  // namespace nada::search
