// Tests for the candidate generators: calibration against Table 2,
// flaw-detection ground truth, diversity, and prompt-strategy ablations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "env/abr_domain.h"
#include "filter/checks.h"
#include "gen/arch_gen.h"
#include "gen/profile.h"
#include "gen/state_gen.h"
#include "rl/agent.h"
#include "store/fingerprint.h"

namespace nada::gen {
namespace {

struct CheckedBatch {
  std::size_t total = 0;
  std::size_t compiled = 0;
  std::size_t normalized = 0;  // compiled AND normalized
};

CheckedBatch run_checks(const std::vector<StateCandidate>& batch) {
  CheckedBatch out;
  out.total = batch.size();
  for (const auto& cand : batch) {
    std::optional<dsl::StateProgram> program;
    const auto compile = filter::compilation_check(cand.source, env::abr_catalog(), &program);
    if (!compile.passed) continue;
    ++out.compiled;
    if (filter::normalization_check(*program, env::abr_catalog()).passed) ++out.normalized;
  }
  return out;
}

// ---- Table 2 calibration ------------------------------------------------------

TEST(StateGenerator, Gpt35RatesMatchTable2) {
  StateGenerator generator(gpt35_profile(), PromptStrategy{}, 42);
  const auto batch = generator.generate_batch(3000);
  const CheckedBatch checked = run_checks(batch);
  // Paper: 41.2% compilable, 27.4% well-normalized. Allow +-5pp.
  EXPECT_NEAR(static_cast<double>(checked.compiled) / 3000.0, 0.412, 0.05);
  EXPECT_NEAR(static_cast<double>(checked.normalized) / 3000.0, 0.274, 0.05);
}

TEST(StateGenerator, Gpt4RatesMatchTable2) {
  StateGenerator generator(gpt4_profile(), PromptStrategy{}, 43);
  const auto batch = generator.generate_batch(3000);
  const CheckedBatch checked = run_checks(batch);
  // Paper: 68.6% compilable, 50.2% well-normalized.
  EXPECT_NEAR(static_cast<double>(checked.compiled) / 3000.0, 0.686, 0.05);
  EXPECT_NEAR(static_cast<double>(checked.normalized) / 3000.0, 0.502, 0.05);
}

TEST(StateGenerator, Gpt4BeatsGpt35OnBothRates) {
  StateGenerator g35(gpt35_profile(), PromptStrategy{}, 1);
  StateGenerator g4(gpt4_profile(), PromptStrategy{}, 2);
  const CheckedBatch c35 = run_checks(g35.generate_batch(1000));
  const CheckedBatch c4 = run_checks(g4.generate_batch(1000));
  EXPECT_GT(c4.compiled, c35.compiled);
  EXPECT_GT(c4.normalized, c35.normalized);
}

// ---- flaw ground truth ----------------------------------------------------------

TEST(StateGenerator, PlantedSyntaxFlawsAlwaysFailCompileCheck) {
  StateGenerator generator(gpt35_profile(), PromptStrategy{}, 7);
  std::size_t syntax_seen = 0;
  for (int i = 0; i < 800 && syntax_seen < 100; ++i) {
    const StateCandidate cand = generator.generate();
    if (cand.flaw != InjectedFlaw::kSyntax) continue;
    ++syntax_seen;
    EXPECT_FALSE(filter::compilation_check(cand.source, env::abr_catalog()).passed)
        << cand.source;
  }
  EXPECT_GE(syntax_seen, 50u);
}

TEST(StateGenerator, PlantedRuntimeFlawsFailTrialRun) {
  StateGenerator generator(gpt4_profile(), PromptStrategy{}, 8);
  std::size_t runtime_seen = 0;
  for (int i = 0; i < 1500 && runtime_seen < 100; ++i) {
    const StateCandidate cand = generator.generate();
    if (cand.flaw != InjectedFlaw::kRuntime) continue;
    ++runtime_seen;
    EXPECT_FALSE(filter::compilation_check(cand.source, env::abr_catalog()).passed)
        << cand.source;
  }
  EXPECT_GE(runtime_seen, 50u);
}

TEST(StateGenerator, PlantedUnnormalizedFlawsFailNormCheckButCompile) {
  StateGenerator generator(gpt4_profile(), PromptStrategy{}, 9);
  std::size_t seen = 0;
  for (int i = 0; i < 1500 && seen < 100; ++i) {
    const StateCandidate cand = generator.generate();
    if (cand.flaw != InjectedFlaw::kUnnormalized) continue;
    ++seen;
    std::optional<dsl::StateProgram> program;
    ASSERT_TRUE(filter::compilation_check(cand.source, env::abr_catalog(), &program).passed)
        << cand.source;
    EXPECT_FALSE(filter::normalization_check(*program, env::abr_catalog()).passed)
        << cand.source;
  }
  EXPECT_GE(seen, 50u);
}

TEST(StateGenerator, CleanCandidatesPassBothChecks) {
  StateGenerator generator(gpt4_profile(), PromptStrategy{}, 10);
  std::size_t clean_seen = 0;
  std::size_t clean_passed = 0;
  for (int i = 0; i < 600 && clean_seen < 200; ++i) {
    const StateCandidate cand = generator.generate();
    if (cand.flaw != InjectedFlaw::kNone) continue;
    ++clean_seen;
    std::optional<dsl::StateProgram> program;
    if (filter::compilation_check(cand.source, env::abr_catalog(), &program).passed &&
        filter::normalization_check(*program, env::abr_catalog()).passed) {
      ++clean_passed;
    }
  }
  ASSERT_GE(clean_seen, 100u);
  // Clean templates are designed to be safe; a tiny accidental failure
  // rate is tolerated (the paper's checks are statistical, not exact).
  EXPECT_GT(static_cast<double>(clean_passed) / clean_seen, 0.97);
}

// ---- diversity -------------------------------------------------------------------

TEST(StateGenerator, ProducesDiversePrograms) {
  StateGenerator generator(gpt4_profile(), PromptStrategy{}, 11);
  std::set<std::string> unique_sources;
  for (int i = 0; i < 300; ++i) {
    unique_sources.insert(generator.generate().source);
  }
  EXPECT_GT(unique_sources.size(), 150u);
}

TEST(StateGenerator, AdvancedFeaturesAppear) {
  StateGenerator generator(gpt4_profile(), PromptStrategy{}, 12);
  std::set<std::string> tags;
  for (int i = 0; i < 500; ++i) {
    for (const auto& tag : generator.generate().feature_tags) {
      tags.insert(tag);
    }
  }
  // The §4 feature families should all show up in a big batch.
  EXPECT_TRUE(tags.contains("buf_trend"));
  EXPECT_TRUE(tags.contains("buf_diff"));
  EXPECT_TRUE(tags.contains("buf_savgol"));
  EXPECT_TRUE(tags.contains("tput_pred"));
  EXPECT_TRUE(tags.contains("ladder_rel"));
  EXPECT_TRUE(tags.contains("range_pm1"));
}

TEST(StateGenerator, DeterministicForSeed) {
  StateGenerator a(gpt4_profile(), PromptStrategy{}, 77);
  StateGenerator b(gpt4_profile(), PromptStrategy{}, 77);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.generate().source, b.generate().source);
  }
}

// ---- windowed replay (the streaming funnel's contract) -------------------------

TEST(StateGenerator, WindowedBatchesReplayTheOneShotStream) {
  // The streaming funnel pulls the stream in rolling windows; the ids and
  // sources must be byte-for-byte the ones a single materializing pull
  // produces, whatever the window size.
  StateGenerator one_shot(gpt4_profile(), PromptStrategy{}, 314);
  const auto whole = one_shot.generate_batch(35);
  for (const std::size_t window : {std::size_t{1}, std::size_t{7},
                                   std::size_t{16}}) {
    StateGenerator windowed(gpt4_profile(), PromptStrategy{}, 314);
    std::vector<StateCandidate> chunked;
    while (chunked.size() < whole.size()) {
      const std::size_t ask = std::min(window, whole.size() - chunked.size());
      for (auto& cand : windowed.generate_batch(ask)) {
        chunked.push_back(std::move(cand));
      }
    }
    EXPECT_EQ(windowed.position(), whole.size());
    ASSERT_EQ(chunked.size(), whole.size());
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(chunked[i].id, whole[i].id) << "window " << window;
      EXPECT_EQ(chunked[i].source, whole[i].source) << "window " << window;
      EXPECT_EQ(chunked[i].flaw, whole[i].flaw) << "window " << window;
    }
  }
}

TEST(StateGenerator, ResetReplaysAcrossWindowBoundaries) {
  // A resumed streaming run rewinds the generator and re-pulls in windows
  // that need not match the original run's: the historical id/source
  // stream must reproduce exactly across the new boundaries.
  StateGenerator generator(gpt4_profile(), PromptStrategy{}, 2718);
  const auto history = generator.generate_batch(10);
  generator.reset();
  EXPECT_EQ(generator.position(), 0u);
  std::vector<StateCandidate> replay;
  for (const std::size_t pull : {std::size_t{3}, std::size_t{3},
                                 std::size_t{3}, std::size_t{1}}) {
    for (auto& cand : generator.generate_batch(pull)) {
      replay.push_back(std::move(cand));
    }
  }
  ASSERT_EQ(replay.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(replay[i].id, history[i].id);
    EXPECT_EQ(replay[i].source, history[i].source);
  }
}

TEST(StateGenerator, CcSpaceWindowedReplayMatches) {
  // The windowed-replay contract is space-independent: the CC design
  // space streams through the same generator machinery.
  StateGenerator one_shot(cc_state_space(), gpt4_profile(), PromptStrategy{},
                          99);
  const auto whole = one_shot.generate_batch(12);
  StateGenerator windowed(cc_state_space(), gpt4_profile(), PromptStrategy{},
                          99);
  std::vector<StateCandidate> chunked;
  for (int pull = 0; pull < 3; ++pull) {
    for (auto& cand : windowed.generate_batch(4)) {
      chunked.push_back(std::move(cand));
    }
  }
  ASSERT_EQ(chunked.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(chunked[i].id, whole[i].id);
    EXPECT_EQ(chunked[i].source, whole[i].source);
  }
}

TEST(StateGenerator, IdsAreUniqueAndPrefixed) {
  StateGenerator generator(gpt35_profile(), PromptStrategy{}, 13);
  std::set<std::string> ids;
  for (int i = 0; i < 100; ++i) {
    const auto cand = generator.generate();
    EXPECT_TRUE(cand.id.starts_with("gpt-35-state-")) << cand.id;
    ids.insert(cand.id);
  }
  EXPECT_EQ(ids.size(), 100u);
}

// ---- prompt strategies --------------------------------------------------------------

TEST(PromptStrategy, DisablingNormalizationRequestRaisesUnnormalizedRate) {
  PromptStrategy without;
  without.request_normalization = false;
  StateGenerator with_gen(gpt4_profile(), PromptStrategy{}, 21);
  StateGenerator without_gen(gpt4_profile(), without, 22);
  const CheckedBatch with_rates = run_checks(with_gen.generate_batch(1500));
  const CheckedBatch without_rates =
      run_checks(without_gen.generate_batch(1500));
  const double norm_frac_with =
      static_cast<double>(with_rates.normalized) /
      std::max<std::size_t>(with_rates.compiled, 1);
  const double norm_frac_without =
      static_cast<double>(without_rates.normalized) /
      std::max<std::size_t>(without_rates.compiled, 1);
  EXPECT_LT(norm_frac_without, norm_frac_with - 0.05);
}

TEST(PromptStrategy, DisablingSemanticNamesLowersCompileRate) {
  PromptStrategy without;
  without.semantic_names = false;
  StateGenerator with_gen(gpt35_profile(), PromptStrategy{}, 23);
  StateGenerator without_gen(gpt35_profile(), without, 24);
  const CheckedBatch with_rates = run_checks(with_gen.generate_batch(1500));
  const CheckedBatch without_rates =
      run_checks(without_gen.generate_batch(1500));
  EXPECT_LT(without_rates.compiled, with_rates.compiled);
}

TEST(PromptStrategy, DisablingCotReducesDiversity) {
  PromptStrategy without;
  without.chain_of_thought = false;
  StateGenerator with_gen(gpt4_profile(), PromptStrategy{}, 25);
  StateGenerator without_gen(gpt4_profile(), without, 26);
  std::set<std::string> with_sources, without_sources;
  for (int i = 0; i < 400; ++i) {
    with_sources.insert(with_gen.generate().source);
    without_sources.insert(without_gen.generate().source);
  }
  EXPECT_LT(without_sources.size(), with_sources.size());
}

// ---- architecture generator -----------------------------------------------------------

nn::StateSignature pensieve_sig() {
  const auto program =
      dsl::StateProgram::compile(dsl::pensieve_state_source());
  return rl::derive_signature(program, env::abr_catalog());
}

TEST(ArchGenerator, Gpt35InvalidRateMatchesPaper) {
  ArchGenerator generator(gpt35_profile(), PromptStrategy{}, 31);
  const auto batch = generator.generate_batch(3000);
  const nn::StateSignature sig = pensieve_sig();
  std::size_t compiled = 0;
  for (const auto& cand : batch) {
    if (filter::arch_compilation_check(cand.spec, sig).passed) ++compiled;
  }
  // §3.3: 760/3000 = 25.3% compilable. Allow +-5pp.
  EXPECT_NEAR(static_cast<double>(compiled) / 3000.0, 0.253, 0.05);
}

TEST(ArchGenerator, IntendedInvalidSpecsFailCheck) {
  ArchGenerator generator(gpt35_profile(), PromptStrategy{}, 32);
  const nn::StateSignature sig = pensieve_sig();
  std::size_t invalid_seen = 0;
  for (int i = 0; i < 400 && invalid_seen < 100; ++i) {
    const auto cand = generator.generate();
    if (!cand.intended_invalid) continue;
    ++invalid_seen;
    EXPECT_FALSE(filter::arch_compilation_check(cand.spec, sig).passed)
        << cand.description;
  }
  EXPECT_GE(invalid_seen, 50u);
}

TEST(ArchGenerator, ValidSpecsInstantiate) {
  ArchGenerator generator(gpt4_profile(), PromptStrategy{}, 33);
  const nn::StateSignature sig = pensieve_sig();
  std::size_t valid_seen = 0;
  for (int i = 0; i < 400 && valid_seen < 100; ++i) {
    const auto cand = generator.generate();
    if (cand.intended_invalid) continue;
    ++valid_seen;
    EXPECT_TRUE(filter::arch_compilation_check(cand.spec, sig).passed)
        << cand.description;
  }
  EXPECT_GE(valid_seen, 50u);
}

TEST(ArchGenerator, WindowedBatchesReplayTheOneShotStream) {
  ArchGenerator one_shot(gpt4_profile(), PromptStrategy{}, 55, 0.25);
  const auto whole = one_shot.generate_batch(20);
  ArchGenerator windowed(gpt4_profile(), PromptStrategy{}, 55, 0.25);
  std::vector<ArchCandidate> chunked;
  for (int pull = 0; pull < 4; ++pull) {
    for (auto& cand : windowed.generate_batch(5)) {
      chunked.push_back(std::move(cand));
    }
  }
  EXPECT_EQ(windowed.position(), 20u);
  ASSERT_EQ(chunked.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(chunked[i].id, whole[i].id);
    EXPECT_EQ(chunked[i].description, whole[i].description);
    // Specs compare through their canonical content hash (ArchSpec has no
    // operator==): identical fingerprints mean identical store keys.
    EXPECT_EQ(store::fingerprint_arch(chunked[i].spec).hex(),
              store::fingerprint_arch(whole[i].spec).hex());
  }
  // reset() rewinds across window boundaries, like the state generator.
  windowed.reset();
  const auto replay = windowed.generate_batch(20);
  ASSERT_EQ(replay.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(replay[i].id, whole[i].id);
    EXPECT_EQ(store::fingerprint_arch(replay[i].spec).hex(),
              store::fingerprint_arch(whole[i].spec).hex());
  }
}

TEST(ArchGenerator, CoversPaperVariants) {
  ArchGenerator generator(gpt4_profile(), PromptStrategy{}, 34);
  bool saw_rnn = false, saw_lstm = false, saw_shared = false,
       saw_leaky = false, saw_256 = false;
  for (int i = 0; i < 600; ++i) {
    const auto cand = generator.generate();
    if (cand.intended_invalid) continue;
    saw_rnn |= cand.spec.temporal == nn::TemporalUnit::kRnn;
    saw_lstm |= cand.spec.temporal == nn::TemporalUnit::kLstm;
    saw_shared |= cand.spec.shared_trunk;
    saw_leaky |= cand.spec.activation == nn::Activation::kLeakyRelu;
    saw_256 |= cand.spec.merge_hidden == 256;
  }
  EXPECT_TRUE(saw_rnn);
  EXPECT_TRUE(saw_lstm);
  EXPECT_TRUE(saw_shared);
  EXPECT_TRUE(saw_leaky);
  EXPECT_TRUE(saw_256);
}

TEST(Profile, FlawNamesExposed) {
  EXPECT_STREQ(injected_flaw_name(InjectedFlaw::kNone), "none");
  EXPECT_STREQ(injected_flaw_name(InjectedFlaw::kSyntax), "syntax");
  EXPECT_STREQ(injected_flaw_name(InjectedFlaw::kRuntime), "runtime");
  EXPECT_STREQ(injected_flaw_name(InjectedFlaw::kUnnormalized),
               "unnormalized");
}

TEST(Profile, StrategyMultipliersCap) {
  // Even with every strategy off, fates must remain a valid distribution.
  PromptStrategy off;
  off.chain_of_thought = false;
  off.semantic_names = false;
  off.request_normalization = false;
  const LlmProfile p = gpt35_profile().with_strategy(off);
  EXPECT_LE(p.p_syntax_error + p.p_runtime_error + p.p_unnormalized, 1.0);
}

}  // namespace
}  // namespace nada::gen
