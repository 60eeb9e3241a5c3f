// End-to-end integration tests crossing every module boundary:
// generator -> DSL -> checks -> env -> nn -> rl -> search, plus
// determinism and failure-injection properties that only show up when the
// whole stack runs together.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "abr/policies.h"
#include "env/abr_domain.h"
#include "filter/checks.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "rl/agent.h"
#include "rl/session.h"
#include "search/candidate.h"
#include "search/search_job.h"
#include "store/candidate_store.h"
#include "util/fs.h"
#include "util/thread_pool.h"

namespace nada {
namespace {

search::SearchConfig small_config() {
  search::SearchConfig config;
  config.num_candidates = 30;
  config.early_epochs = 12;
  config.full_train_top = 2;
  config.seeds = 2;
  config.train.epochs = 60;
  config.train.test_interval = 20;
  config.train.max_eval_traces = 3;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = arch.rnn_hidden = arch.scalar_hidden =
      arch.merge_hidden = 8;
  config.baseline_arch = arch;
  return config;
}

/// A GPT-4-profile state search over `domain` (generator seed `gen_seed`).
search::SearchResult search_states(const env::TaskDomain& domain,
                                   const search::SearchConfig& config,
                                   std::uint64_t seed, std::uint64_t gen_seed,
                                   util::ThreadPool* pool,
                                   store::CandidateStore* store = nullptr) {
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                gen_seed);
  search::StateCandidateSource source(generator);
  search::JobOptions options;
  options.pool = pool;
  options.store = store;
  search::SearchJob job(domain, config, seed, source,
                        search::FixedDesign{nullptr, &config.baseline_arch},
                        options);
  return job.run_to_completion();
}

TEST(Integration, FullStateSearchIsDeterministicForSeed) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kFcc, 0.03, 5);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 5);
  const env::AbrDomain domain(dataset, video);

  const auto a = search_states(domain, small_config(), 42, 9, nullptr);
  const auto b = search_states(domain, small_config(), 42, 9, nullptr);
  EXPECT_EQ(a.n_compiled, b.n_compiled);
  EXPECT_EQ(a.n_normalized, b.n_normalized);
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  EXPECT_DOUBLE_EQ(a.original_score, b.original_score);
}

TEST(Integration, PooledJobWritesTheSameJournalBytesAsPoolLessJob) {
  // Pool threads only compute: results are applied, journaled, and
  // announced on the stepping thread in stream order, so the pool size
  // cannot reach the journal — in batch mode or in rolling windows.
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kStarlink, 0.1, 6);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 6);
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool(8);

  for (const std::size_t window : {std::size_t{0}, std::size_t{5}}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    search::SearchConfig config = small_config();
    config.window_size = window;
    const store::StoreScope scope = search::store_scope(domain, config, 7);
    auto journal_of = [&](util::ThreadPool* run_pool,
                          const std::string& tag) {
      const std::string path = ::testing::TempDir() + "nada_integration_" +
                               tag + std::to_string(window) + ".nsb";
      std::remove(path.c_str());
      search::SearchResult result;
      {
        store::CandidateStore store(path, scope);
        result = search_states(domain, config, 7, 3, run_pool, &store);
      }
      return std::make_pair(std::move(result), util::read_file(path));
    };
    const auto [serial, serial_journal] = journal_of(nullptr, "serial");
    const auto [pooled, pooled_journal] = journal_of(&pool, "pooled");

    EXPECT_EQ(serial.n_compiled, pooled.n_compiled);
    EXPECT_EQ(serial.n_normalized, pooled.n_normalized);
    EXPECT_EQ(serial.n_probes_run, pooled.n_probes_run);
    EXPECT_EQ(serial.best_index, pooled.best_index);
    EXPECT_DOUBLE_EQ(serial.best_score, pooled.best_score);
    EXPECT_FALSE(serial_journal.empty());
    EXPECT_EQ(serial_journal, pooled_journal);
  }
}

TEST(Integration, GeneratedWinnerIsARunnableProgram) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kStarlink, 0.1, 8);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 8);
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool(8);
  const auto result = search_states(domain, small_config(), 11, 21, &pool);
  ASSERT_TRUE(result.has_best());
  // The winning source must recompile and pass both checks from scratch.
  std::optional<dsl::StateProgram> program;
  const auto& best = result.outcomes[result.best_index];
  EXPECT_TRUE(filter::compilation_check(best.source, env::abr_catalog(), &program).passed);
  EXPECT_TRUE(filter::normalization_check(*program, env::abr_catalog()).passed);
  // And it must produce a state consumable by a fresh agent.
  util::Rng rng(1);
  rl::PolicyAgent agent(*program, small_config().baseline_arch, 6,
                        env::abr_catalog(), rng);
  EXPECT_NO_THROW(
      agent.decide(env::abr_catalog().canned(), /*sample=*/false, rng));
}

TEST(Integration, EmulationScoresShiftButOrderingHolds) {
  // Train two designs of clearly different quality and verify the
  // emulation substrate preserves their ordering (Table 4's claim).
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kStarlink, 0.1, 13);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 13);
  rl::SessionConfig config;
  config.seeds = 2;
  config.train.epochs = 300;
  config.train.test_interval = 50;
  config.train.emulation_final_eval = true;
  nn::ArchSpec arch = small_config().baseline_arch;
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool(8);

  const auto good = dsl::StateProgram::compile(dsl::pensieve_state_source());
  // A deliberately crippled state: constant features carry no information.
  const auto bad = dsl::StateProgram::compile(
      "emit \"nothing\" = 0.5;\nemit \"more_nothing\" = vec(8, 0.5);\n");
  const auto good_result =
      rl::run_sessions(domain, good, arch, config, 31, &pool);
  const auto bad_result =
      rl::run_sessions(domain, bad, arch, config, 31, &pool);
  ASSERT_FALSE(good_result.failed);
  ASSERT_FALSE(bad_result.failed);
  EXPECT_GT(good_result.test_score, bad_result.test_score);
  EXPECT_GT(good_result.emulation_score, bad_result.emulation_score);
  // Emulation shifts absolute numbers.
  EXPECT_NE(good_result.emulation_score, good_result.test_score);
}

TEST(Integration, InformativeStateBeatsBlindState) {
  // The RL stack must be able to exploit state information: an agent that
  // can see throughput/buffer must out-learn one that cannot.
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.05, 17);
  const video::Video video =
      video::make_test_video(video::youtube_ladder(), 17);
  rl::SessionConfig config;
  config.seeds = 3;
  config.train.epochs = 800;
  config.train.test_interval = 80;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = arch.rnn_hidden = arch.scalar_hidden =
      arch.merge_hidden = 16;
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool(8);

  const auto sighted =
      dsl::StateProgram::compile(dsl::pensieve_state_source());
  const auto blind = dsl::StateProgram::compile(
      "emit \"constant\" = 0.5;\n");
  const auto sighted_result =
      rl::run_sessions(domain, sighted, arch, config, 77, &pool);
  const auto blind_result =
      rl::run_sessions(domain, blind, arch, config, 77, &pool);
  EXPECT_GT(sighted_result.test_score, blind_result.test_score);
}

TEST(Integration, TrainedAgentBeatsNaiveBaselinesOnEasyEnv) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.05, 23);
  const video::Video video =
      video::make_test_video(video::youtube_ladder(), 23);
  rl::SessionConfig config;
  config.seeds = 2;
  config.train.epochs = 1000;
  config.train.test_interval = 100;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = arch.rnn_hidden = arch.scalar_hidden =
      arch.merge_hidden = 16;
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool(8);
  const auto program =
      dsl::StateProgram::compile(dsl::pensieve_state_source());
  const auto trained =
      rl::run_sessions(domain, program, arch, config, 3, &pool);

  abr::FixedPolicy fixed_low(0);
  const double low = abr::evaluate_policy(
      fixed_low, dataset.test, video, env::Fidelity::kSimulation, 3);
  EXPECT_GT(trained.test_score, low);
}

TEST(Integration, ArchSearchWinnersReinstantiate) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kFcc, 0.03, 29);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 29);
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool(8);
  search::SearchConfig config = small_config();
  config.num_candidates = 25;
  gen::ArchGenerator generator(gen::gpt35_profile(), gen::PromptStrategy{},
                               41, 0.1);
  search::ArchCandidateSource source(generator);
  const auto state = dsl::StateProgram::compile(dsl::pensieve_state_source());
  search::JobOptions options;
  options.pool = &pool;
  search::SearchJob job(domain, config, 31, source,
                        search::FixedDesign{&state, nullptr}, options);
  const auto result = job.run_to_completion();
  if (result.has_best()) {
    const auto& best = result.outcomes[result.best_index];
    ASSERT_TRUE(best.arch.has_value());
    const nn::StateSignature sig =
        rl::derive_signature(state, env::abr_catalog());
    EXPECT_TRUE(filter::arch_compilation_check(*best.arch, sig).passed);
  }
}

}  // namespace
}  // namespace nada
