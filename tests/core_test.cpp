// Tests for the core NADA funnel, driven through search::SearchJob:
//
//   * funnel accounting: counters agree with per-outcome flags, probed but
//     unselected candidates are marked early-stopped, architecture searches
//     rank, an early-stop model filters probes, and jobs share one trained
//     baseline through JobOptions::baseline_cache,
//   * config validation: degenerate configs are rejected with descriptive
//     errors while boundary cases stay legal,
//   * the environment-scaled config (search::scaled_config).
#include <gtest/gtest.h>

#include <optional>

#include "env/abr_domain.h"
#include "filter/earlystop.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/search_job.h"

namespace nada::search {
namespace {

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

// ---- funnel accounting and selection ---------------------------------------

/// A batch-mode job over the fixture's domain and pool.
SearchResult run_search(Fixture& fx, const SearchConfig& config,
                        std::uint64_t seed, CandidateSource& source,
                        FixedDesign fixed, JobOptions options = {}) {
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, seed, source, fixed, options);
  return job.run_to_completion();
}

TEST(SearchFunnel, StateSearchFunnelAccounting) {
  Fixture fx;
  SearchConfig config = tiny_config();
  config.num_candidates = 40;
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  StateCandidateSource source(generator);
  const SearchResult result =
      run_search(fx, config, 1234, source,
                 FixedDesign{nullptr, &config.baseline_arch});

  EXPECT_EQ(result.n_total, 40u);
  EXPECT_EQ(result.outcomes.size(), 40u);
  EXPECT_LE(result.n_compiled, result.n_total);
  EXPECT_LE(result.n_normalized, result.n_compiled);
  EXPECT_LE(result.n_fully_trained, config.full_train_top);
  EXPECT_GT(result.n_fully_trained, 0u);
  EXPECT_TRUE(result.has_best());
  EXPECT_GT(result.best_score, -1e8);
  // The original design trained for comparison.
  EXPECT_FALSE(result.original.failed);

  // Per-outcome consistency.
  std::size_t compiled = 0, normalized = 0, trained = 0;
  for (const auto& o : result.outcomes) {
    if (o.compiled) ++compiled;
    if (o.compiled && o.normalized) ++normalized;
    if (o.fully_trained) {
      ++trained;
      EXPECT_TRUE(o.early_probed);
      EXPECT_FALSE(o.early_stopped);
      EXPECT_FALSE(o.median_curve.empty());
    }
    if (!o.compiled) {
      EXPECT_FALSE(o.compile_error.empty());
      EXPECT_FALSE(o.fully_trained);
    }
  }
  EXPECT_EQ(compiled, result.n_compiled);
  EXPECT_EQ(normalized, result.n_normalized);
  EXPECT_EQ(trained, result.n_fully_trained);
}

TEST(SearchFunnel, ProbedButUnselectedAreEarlyStopped) {
  Fixture fx;
  SearchConfig config = tiny_config();
  config.num_candidates = 40;
  config.full_train_top = 1;
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                88);
  StateCandidateSource source(generator);
  const SearchResult result =
      run_search(fx, config, 4321, source,
                 FixedDesign{nullptr, &config.baseline_arch});
  // Everything probed but not fully trained must be marked early-stopped.
  std::size_t probed = 0;
  for (const auto& o : result.outcomes) {
    if (o.early_probed) ++probed;
    if (o.early_probed && !o.fully_trained) {
      EXPECT_TRUE(o.early_stopped) << o.id;
    }
  }
  EXPECT_EQ(result.n_early_stopped, probed - result.n_fully_trained);
}

TEST(SearchFunnel, ArchSearchRunsAndRanks) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  gen::ArchGenerator generator(gen::gpt35_profile(), gen::PromptStrategy{},
                               99);
  ArchCandidateSource source(generator);
  const auto state = dsl::StateProgram::compile(dsl::pensieve_state_source());
  const SearchResult result =
      run_search(fx, config, 555, source, FixedDesign{&state, nullptr});
  EXPECT_EQ(result.n_total, 30u);
  EXPECT_GT(result.n_compiled, 0u);
  EXPECT_LT(result.n_compiled, 30u);  // GPT-3.5 profile: ~75% invalid
  EXPECT_GT(result.n_fully_trained, 0u);
  EXPECT_TRUE(result.has_best());
  for (const auto& o : result.outcomes) {
    if (o.fully_trained) EXPECT_TRUE(o.arch.has_value());
  }
}

TEST(SearchFunnel, EarlyStopModelFiltersProbes) {
  Fixture fx;
  SearchConfig config = tiny_config();
  config.num_candidates = 40;

  // A heuristic model with an absurdly high threshold stops everything;
  // the job must then fully train nothing.
  filter::EarlyStopConfig es_config;
  filter::EarlyStopModel model(filter::EarlyStopMethod::kHeuristicMax,
                               es_config, 1);
  std::vector<filter::DesignRecord> fake_corpus;
  for (int i = 0; i < 10; ++i) {
    filter::DesignRecord r;
    r.id = std::to_string(i);
    r.final_score = i == 0 ? 1e8 : static_cast<double>(i);
    r.early_rewards = {0.0, i == 0 ? 1e9 : 1.0};
    fake_corpus.push_back(r);
  }
  model.fit(fake_corpus);  // threshold ~1e9: nothing real survives

  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                11);
  StateCandidateSource source(generator);
  JobOptions options;
  options.early_stop_model = &model;
  const SearchResult result =
      run_search(fx, config, 888, source,
                 FixedDesign{nullptr, &config.baseline_arch}, options);
  EXPECT_EQ(result.n_fully_trained, 0u);
  EXPECT_FALSE(result.has_best());
  EXPECT_GT(result.n_early_stopped, 0u);
}

TEST(SearchFunnel, BaselineCacheSharesOneBaselineAcrossJobs) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  const auto state = dsl::StateProgram::compile(dsl::pensieve_state_source());
  gen::StateGenerator state_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  gen::ArchGenerator arch_gen(gen::gpt35_profile(), gen::PromptStrategy{},
                              99);
  StateCandidateSource states(state_gen);
  ArchCandidateSource archs(arch_gen);

  // Without a cache slot a job still trains its baseline only once.
  SearchJob alone(fx.domain, config, 777, states,
                  FixedDesign{nullptr, &config.baseline_arch});
  EXPECT_EQ(&alone.original_baseline(), &alone.original_baseline());

  // A state search and an architecture search share one slot: the second
  // job is served the first job's baseline, not a retrained copy.
  std::optional<rl::SessionResult> baseline;
  JobOptions options;
  options.pool = &fx.pool;
  options.baseline_cache = &baseline;
  SearchJob state_job(fx.domain, config, 777, states,
                      FixedDesign{nullptr, &config.baseline_arch}, options);
  const rl::SessionResult& first = state_job.original_baseline();
  ASSERT_TRUE(baseline.has_value());
  EXPECT_EQ(&first, &*baseline);
  EXPECT_FALSE(first.failed);
  SearchJob arch_job(fx.domain, config, 777, archs,
                     FixedDesign{&state, nullptr}, options);
  EXPECT_EQ(&arch_job.original_baseline(), &first);
}

// ---- config validation -------------------------------------------------------

TEST(SearchConfigValidation, JobRejectsDegenerateConfig) {
  Fixture fx;
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                1);
  StateCandidateSource source(generator);
  const SearchConfig base = tiny_config();
  const FixedDesign fixed{nullptr, &base.baseline_arch};
  SearchConfig no_candidates = base;
  no_candidates.num_candidates = 0;
  EXPECT_THROW(SearchJob(fx.domain, no_candidates, 1, source, fixed),
               std::invalid_argument);
  SearchConfig no_top = base;
  no_top.full_train_top = 0;
  EXPECT_THROW(SearchJob(fx.domain, no_top, 1, source, fixed),
               std::invalid_argument);
}

TEST(SearchConfigValidation, DescriptiveErrorsAndLegalBoundaries) {
  auto expect_rejected = [](const SearchConfig& config,
                            const std::string& needle) {
    try {
      validate_config(config);
      FAIL() << "config with bad " << needle << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  SearchConfig top_heavy = tiny_config();
  top_heavy.num_candidates = 4;
  top_heavy.full_train_top = 5;
  expect_rejected(top_heavy, "full_train_top");

  SearchConfig no_seeds = tiny_config();
  no_seeds.seeds = 0;
  expect_rejected(no_seeds, "seeds");

  SearchConfig no_block = tiny_config();
  no_block.probe_block = 0;
  expect_rejected(no_block, "probe_block");

  SearchConfig no_probe = tiny_config();
  no_probe.early_epochs = 0;
  expect_rejected(no_probe, "early_epochs");

  // Boundary cases stay legal.
  SearchConfig exact = tiny_config();
  exact.num_candidates = exact.full_train_top = 3;
  exact.probe_block = 1;
  EXPECT_NO_THROW(validate_config(exact));
}

// ---- scaled config -----------------------------------------------------------

TEST(ScaledConfig, RespectsScaleFactors) {
  util::ScaleConfig scale;
  scale.gen = 0.01;
  scale.epochs = 0.01;
  scale.seeds = 0.6;
  scale.model = 0.25;
  const SearchConfig config = scaled_config(trace::Environment::kFcc, scale);
  EXPECT_EQ(config.num_candidates, 30u);  // 3000 * 0.01
  EXPECT_EQ(config.train.epochs, 400u);   // 40000 * 0.01
  EXPECT_EQ(config.seeds, 3u);            // 5 * 0.6
  EXPECT_GE(config.early_epochs, config.train.epochs / 4);
  // Pensieve's 128-wide towers at a quarter width.
  EXPECT_EQ(config.baseline_arch.conv_filters, 32u);
  EXPECT_EQ(config.baseline_arch.merge_hidden, 32u);
  // Widths never shrink below 8 units.
  scale.model = 0.01;
  EXPECT_EQ(scaled_arch(scale).conv_filters, 8u);
}

TEST(ScaledConfig, StarlinkKeepsSmallerBudget) {
  util::ScaleConfig scale;
  scale.epochs = 0.05;
  const SearchConfig fcc = scaled_config(trace::Environment::kFcc, scale);
  const SearchConfig starlink =
      scaled_config(trace::Environment::kStarlink, scale);
  EXPECT_LT(starlink.train.epochs, fcc.train.epochs);
}

TEST(ScaledConfig, PaperScaleReproducesPaperBudgets) {
  util::ScaleConfig scale;
  scale.gen = scale.epochs = scale.seeds = scale.traces = scale.model = 1.0;
  const SearchConfig config = scaled_config(trace::Environment::k4G, scale);
  EXPECT_EQ(config.num_candidates, 3000u);
  EXPECT_EQ(config.train.epochs, 40000u);
  EXPECT_EQ(config.seeds, 5u);
  EXPECT_EQ(config.baseline_arch.conv_filters,
            nn::ArchSpec::pensieve().conv_filters);
}

}  // namespace
}  // namespace nada::search
