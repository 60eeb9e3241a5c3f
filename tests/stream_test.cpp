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
//   * streaming resume: a run interrupted after the per-candidate stages
//     finishes on the journal alone (zero re-probes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "cc/cc_domain.h"
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

TEST(StreamingEquivalence, EarlyStopModelVerdictsMatchBatch) {
  // Streaming applies the model's keep() verdicts window by window (with
  // the baseline trained lazily at the first fold); batch applies them in
  // one pass after the baseline stage. Same model, same seeds => the
  // verdicts, counters, and rankings must agree.
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

  auto run = [&](std::size_t window) {
    SearchConfig config = tiny_config(window);
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  77);
    StateCandidateSource source(generator);
    JobOptions options;
    options.pool = &fx.pool;
    options.early_stop_model = &model;
    SearchJob job(fx.domain, config, 1234, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
    return job.run_to_completion();
  };
  const auto batch = run(0);
  const auto stream = run(7);
  expect_equivalent(batch, stream);
  // The model actually discriminated (otherwise this test pins nothing).
  EXPECT_GT(batch.n_early_stopped, 0u);
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

  // Batch jobs never fire window events.
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
  EXPECT_TRUE(batch_recording.windows.empty());
  EXPECT_TRUE(batch_recording.window_starts.empty());
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

}  // namespace
}  // namespace nada::search
