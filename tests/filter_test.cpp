// Tests for the filtering stack: pre-checks and the early-stopping models.
#include <gtest/gtest.h>

#include <cmath>

#include "env/abr_domain.h"
#include "filter/checks.h"
#include "filter/earlystop.h"
#include "util/rng.h"

namespace nada::filter {
namespace {

// ---- compilation check ---------------------------------------------------------

TEST(CompilationCheck, AcceptsPensieveState) {
  std::optional<dsl::StateProgram> program;
  const auto result =
      compilation_check(dsl::pensieve_state_source(), env::abr_catalog(), &program);
  EXPECT_TRUE(result.passed) << result.reason;
  EXPECT_TRUE(program.has_value());
}

TEST(CompilationCheck, RejectsSyntaxError) {
  const auto result = compilation_check("emit \"x\" = 1 +;", env::abr_catalog());
  EXPECT_FALSE(result.passed);
  EXPECT_FALSE(result.reason.empty());
}

TEST(CompilationCheck, RejectsUndefinedVariable) {
  const auto result = compilation_check("emit \"x\" = undefined_thing;", env::abr_catalog());
  EXPECT_FALSE(result.passed);
  EXPECT_NE(result.reason.find("undefined"), std::string::npos);
}

TEST(CompilationCheck, RejectsRuntimeError) {
  EXPECT_FALSE(compilation_check("emit \"x\" = throughput_mbps[42];", env::abr_catalog()).passed);
  EXPECT_FALSE(compilation_check("emit \"x\" = 1.0 / 0.0;", env::abr_catalog()).passed);
  EXPECT_FALSE(compilation_check("emit \"x\" = sqrt(0.0 - 1.0);", env::abr_catalog()).passed);
}

TEST(CompilationCheck, NullOutIsAccepted) {
  EXPECT_TRUE(compilation_check(dsl::pensieve_state_source(), env::abr_catalog(), nullptr).passed);
}

// ---- normalization check --------------------------------------------------------

dsl::StateProgram compile_or_die(const std::string& source) {
  std::optional<dsl::StateProgram> program;
  const auto result = compilation_check(source, env::abr_catalog(), &program);
  if (!result.passed) throw std::runtime_error(result.reason);
  return *std::move(program);
}

TEST(NormalizationCheck, AcceptsPensieveState) {
  const auto program = compile_or_die(dsl::pensieve_state_source());
  EXPECT_TRUE(normalization_check(program, env::abr_catalog()).passed);
}

TEST(NormalizationCheck, RejectsRawBytes) {
  const auto program =
      compile_or_die("emit \"sizes\" = next_chunk_sizes_bytes;");
  const auto result = normalization_check(program, env::abr_catalog());
  EXPECT_FALSE(result.passed);
  EXPECT_NE(result.reason.find("sizes"), std::string::npos);
}

TEST(NormalizationCheck, RejectsRawKbpsThroughput) {
  const auto program =
      compile_or_die("emit \"tput\" = throughput_mbps * 1000.0;");
  EXPECT_FALSE(normalization_check(program, env::abr_catalog()).passed);
}

TEST(NormalizationCheck, ThresholdIsConfigurable) {
  // Buffer history peaks at 60 s: fails T=30, passes T=100.
  const auto program =
      compile_or_die("emit \"buf\" = buffer_size_s_history;");
  EXPECT_FALSE(normalization_check(program, env::abr_catalog(), 30.0).passed);
  EXPECT_TRUE(normalization_check(program, env::abr_catalog(), 100.0).passed);
}

TEST(NormalizationCheck, CatchesFuzzOnlyRuntimeErrors) {
  // normalize_minmax throws only when the fuzz vector is constant — but a
  // fragile division CAN pass the canned trial and explode under fuzz:
  // 1 / (buffer - 14.8) is fine on fuzz observations almost surely but the
  // canned observation has buffer == 14.8. Reverse case: division by
  // (total_chunks - chunks_remaining) is fine canned (18) but fuzz can make
  // chunks_remaining ~ total_chunks... use a deterministic case instead:
  // log(throughput - 5) fails whenever fuzz draws a sample below 5 Mbps.
  const auto program = compile_or_die(
      "emit \"x\" = log(vmin(throughput_mbps) - 0.01);");
  // vmin is tiny (>= 0.05); log of near-zero is large-negative but finite;
  // log of negative throws when vmin < 0.01 — that never happens. So this
  // one passes; assert that, then check a genuinely fragile program.
  EXPECT_TRUE(normalization_check(program, env::abr_catalog()).passed);

  const auto fragile = compile_or_die(
      "emit \"x\" = log(vmin(throughput_mbps) - 1.0);");
  // Fuzz draws throughput in [0.05, cap]; vmin < 1.0 is common -> throws.
  const auto result = normalization_check(fragile, env::abr_catalog());
  EXPECT_FALSE(result.passed);
  EXPECT_NE(result.reason.find("raised"), std::string::npos);
}

TEST(NormalizationCheck, InvalidThresholdFails) {
  const auto program = compile_or_die(dsl::pensieve_state_source());
  EXPECT_FALSE(normalization_check(program, env::abr_catalog(), 0.0).passed);
}

TEST(NormalizationCheck, DeterministicForSeed) {
  const auto program =
      compile_or_die("emit \"x\" = throughput_mbps / 3.9;");
  const auto a = normalization_check(program, env::abr_catalog(), 100.0, 16, 9);
  const auto b = normalization_check(program, env::abr_catalog(), 100.0, 16, 9);
  EXPECT_EQ(a.passed, b.passed);
}

// ---- arch check ------------------------------------------------------------------

TEST(ArchCheck, AcceptsPensieve) {
  nn::StateSignature sig;
  sig.row_lengths = {1, 1, 8, 8, 6, 1};
  EXPECT_TRUE(arch_compilation_check(nn::ArchSpec::pensieve(), sig).passed);
}

TEST(ArchCheck, RejectsBadKernel) {
  nn::StateSignature sig;
  sig.row_lengths = {1, 8, 6};
  nn::ArchSpec spec = nn::ArchSpec::pensieve();
  spec.conv_kernel = 7;
  const auto result = arch_compilation_check(spec, sig);
  EXPECT_FALSE(result.passed);
  EXPECT_NE(result.reason.find("kernel"), std::string::npos);
}

// ---- text embedding ---------------------------------------------------------------

TEST(EmbedText, UnitNormAndDeterministic) {
  const auto a = embed_text("emit \"x\" = buffer_size_s / 10.0;", 64);
  const auto b = embed_text("emit \"x\" = buffer_size_s / 10.0;", 64);
  EXPECT_EQ(a, b);
  EXPECT_NEAR(nn::l2_norm(a), 1.0, 1e-9);
}

TEST(EmbedText, SimilarCodeCloserThanDissimilar) {
  const auto base = embed_text(dsl::pensieve_state_source(), 128);
  const auto similar = embed_text(
      dsl::pensieve_state_source() + "emit \"extra\" = 1.0;", 128);
  const auto different = embed_text(
      "let z = trend(buffer_size_s_history); emit \"q\" = z * z;", 128);
  EXPECT_GT(nn::dot(base, similar), nn::dot(base, different));
}

TEST(EmbedText, ShortTextIsZeroVector) {
  const auto e = embed_text("ab", 16);
  EXPECT_NEAR(nn::l2_norm(e), 0.0, 1e-12);
}

// ---- early stopping ----------------------------------------------------------------

/// Synthetic corpus where the early curve genuinely predicts the final
/// score: top designs ramp upward early, mediocre ones plateau low. This is
/// the regime the paper's "Reward Only" classifier exploits.
std::vector<DesignRecord> synthetic_corpus(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<DesignRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    DesignRecord r;
    r.id = "design-" + std::to_string(i);
    // Latent quality in [0, 1], heavy at the bottom (most designs are bad).
    const double quality = std::pow(rng.uniform(), 2.0);
    r.final_score = quality + rng.normal(0.0, 0.02);
    const std::size_t len = 40;
    r.early_rewards.resize(len);
    for (std::size_t t = 0; t < len; ++t) {
      const double progress = static_cast<double>(t) / (len - 1);
      // Better designs ramp faster and higher.
      const double mean_reward =
          quality * (0.3 + 0.7 * progress) + (1.0 - quality) * 0.1;
      r.early_rewards[t] = mean_reward + rng.normal(0.0, 0.05);
    }
    // Code text largely uninformative about final quality, as in practice:
    // many designs share templates, and textual similarity does not imply
    // similar training outcomes (why the paper's Text Only method loses).
    static constexpr const char* kTemplates[] = {
        "emit \"a\" = trend(buffer_size_s_history);",
        "emit \"b\" = buffer_size_s / 10.0;",
        "emit \"c\" = ema(throughput_mbps, 0.5) / 8.0;",
        "emit \"d\" = diff(buffer_size_s_history) / 10.0;"};
    r.source_text = kTemplates[rng.uniform_int(0, 3)];
    records.push_back(std::move(r));
  }
  return records;
}

TEST(LabelTopFraction, CountsMatch) {
  const auto corpus = synthetic_corpus(200, 1);
  const auto labels = label_top_fraction(corpus, 0.05);
  std::size_t positives = 0;
  for (bool b : labels) positives += b ? 1 : 0;
  EXPECT_EQ(positives, 10u);
}

TEST(LabelTopFraction, TopScoresAreLabeled) {
  const auto corpus = synthetic_corpus(100, 2);
  const auto labels = label_top_fraction(corpus, 0.1);
  double min_pos = 1e9, max_neg = -1e9;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (labels[i]) {
      min_pos = std::min(min_pos, corpus[i].final_score);
    } else {
      max_neg = std::max(max_neg, corpus[i].final_score);
    }
  }
  EXPECT_GE(min_pos, max_neg);
}

TEST(EarlyStopModel, ZeroTrainFnrAfterThresholdTuning) {
  const auto corpus = synthetic_corpus(300, 3);
  EarlyStopConfig config;
  config.train.epochs = 25;
  EarlyStopModel model(EarlyStopMethod::kRewardOnly, config, 7);
  model.fit(corpus);
  const auto labels = label_top_fraction(corpus, config.top_fraction);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (labels[i]) {
      EXPECT_TRUE(model.keep(corpus[i])) << corpus[i].id;
    }
  }
}

TEST(EarlyStopModel, HeuristicsNeedNoFit) {
  const auto corpus = synthetic_corpus(100, 4);
  EarlyStopConfig config;
  EarlyStopModel max_model(EarlyStopMethod::kHeuristicMax, config, 1);
  max_model.fit(corpus);
  EXPECT_NO_THROW((void)max_model.score(corpus[0]));
  EarlyStopModel last_model(EarlyStopMethod::kHeuristicLast, config, 1);
  last_model.fit(corpus);
  EXPECT_DOUBLE_EQ(last_model.score(corpus[0]),
                   corpus[0].early_rewards.back());
}

TEST(EarlyStopModel, ScoreBeforeFitThrowsForClassifier) {
  EarlyStopConfig config;
  EarlyStopModel model(EarlyStopMethod::kRewardOnly, config, 1);
  DesignRecord r;
  r.early_rewards = {0.1, 0.2};
  EXPECT_THROW((void)model.score(r), std::logic_error);
}

TEST(EarlyStopModel, RejectsBadConfig) {
  EarlyStopConfig config;
  config.top_fraction = 0.0;
  EXPECT_THROW(EarlyStopModel(EarlyStopMethod::kRewardOnly, config, 1),
               std::invalid_argument);
  EarlyStopConfig config2;
  config2.smooth_fraction = 0.005;  // below top_fraction
  EXPECT_THROW(EarlyStopModel(EarlyStopMethod::kRewardOnly, config2, 1),
               std::invalid_argument);
}

// A zero batch size would divide every gradient by zero; both classifier
// kinds reject it before training.
TEST(EarlyStopModel, ZeroBatchSizeRejected) {
  const auto corpus = synthetic_corpus(20, 8);
  EarlyStopConfig config;
  config.train.epochs = 3;
  config.train.batch_size = 0;
  for (const EarlyStopMethod method :
       {EarlyStopMethod::kRewardOnly, EarlyStopMethod::kTextOnly}) {
    EarlyStopModel model(method, config, 1);
    EXPECT_THROW(model.fit(corpus), std::invalid_argument)
        << early_stop_method_name(method);
  }
}

TEST(EarlyStopModel, TinyCorpusRejected) {
  EarlyStopConfig config;
  EarlyStopModel model(EarlyStopMethod::kRewardOnly, config, 1);
  const auto corpus = synthetic_corpus(3, 5);
  EXPECT_THROW(model.fit(corpus), std::invalid_argument);
}

TEST(CrossValidate, RewardOnlyStopsMostBadDesignsWithoutLosingTop) {
  const auto corpus = synthetic_corpus(500, 6);
  EarlyStopConfig config;
  config.train.epochs = 30;
  const auto folds = cross_validate(EarlyStopMethod::kRewardOnly, config,
                                    corpus, 5, 11);
  ASSERT_EQ(folds.size(), 5u);
  double fnr = 0.0, tnr = 0.0;
  for (const auto& f : folds) {
    fnr += f.false_negative_rate;
    tnr += f.true_negative_rate;
  }
  fnr /= 5.0;
  tnr /= 5.0;
  // Paper: 87% TNR at 12% FNR. The synthetic corpus is friendlier, so we
  // ask for at least a solid trade-off.
  EXPECT_GT(tnr, 0.6);
  EXPECT_LT(fnr, 0.35);
}

TEST(CrossValidate, RewardBeatsTextOnly) {
  // Paper-sized corpus (2000 designs -> 400 training samples per fold):
  // with 1% positives, threshold tuning sees ~4 positives per fold, which
  // keeps the tuned threshold stable enough to compare methods.
  const auto corpus = synthetic_corpus(2000, 7);
  EarlyStopConfig config;
  config.train.epochs = 40;
  auto mean_tnr = [&](EarlyStopMethod m) {
    const auto folds = cross_validate(m, config, corpus, 5, 13);
    double tnr = 0.0;
    for (const auto& f : folds) tnr += f.true_negative_rate;
    return tnr / folds.size();
  };
  // Text alone cannot see training dynamics; reward curves can.
  EXPECT_GT(mean_tnr(EarlyStopMethod::kRewardOnly),
            mean_tnr(EarlyStopMethod::kTextOnly));
}

TEST(CrossValidate, AllMethodsRun) {
  const auto corpus = synthetic_corpus(200, 8);
  EarlyStopConfig config;
  config.train.epochs = 10;
  for (const auto method : all_early_stop_methods()) {
    const auto folds = cross_validate(method, config, corpus, 5, 17);
    EXPECT_EQ(folds.size(), 5u) << early_stop_method_name(method);
    for (const auto& f : folds) {
      EXPECT_GE(f.false_negative_rate, 0.0);
      EXPECT_LE(f.false_negative_rate, 1.0);
      EXPECT_GE(f.true_negative_rate, 0.0);
      EXPECT_LE(f.true_negative_rate, 1.0);
    }
  }
}

TEST(CrossValidate, CorpusTooSmallThrows) {
  const auto corpus = synthetic_corpus(8, 9);
  EarlyStopConfig config;
  EXPECT_THROW(
      cross_validate(EarlyStopMethod::kRewardOnly, config, corpus, 5, 1),
      std::invalid_argument);
}

TEST(EvaluateEarlyStop, MetricsComputedCorrectly) {
  // Hand-built scenario with a heuristic-last model and threshold we can
  // reason about: fit on records where positives end high.
  std::vector<DesignRecord> corpus;
  for (int i = 0; i < 20; ++i) {
    DesignRecord r;
    r.id = std::to_string(i);
    const bool top = i == 0;  // exactly one top design (5%)
    r.final_score = top ? 10.0 : static_cast<double>(i) * 0.1;
    r.early_rewards = {0.0, top ? 5.0 : 0.5 + 0.01 * i};
    corpus.push_back(r);
  }
  EarlyStopConfig config;
  config.top_fraction = 0.05;
  config.smooth_fraction = 0.20;
  EarlyStopModel model(EarlyStopMethod::kHeuristicLast, config, 1);
  model.fit(corpus);
  // Threshold sits just below 5.0: every non-top design is stopped.
  const auto labels = label_top_fraction(corpus, 0.05);
  const auto metrics = evaluate_early_stop(model, corpus, labels);
  EXPECT_EQ(metrics.positives, 1u);
  EXPECT_EQ(metrics.negatives, 19u);
  EXPECT_DOUBLE_EQ(metrics.false_negative_rate, 0.0);
  EXPECT_DOUBLE_EQ(metrics.true_negative_rate, 1.0);
}

TEST(EvaluateEarlyStop, SizeMismatchThrows) {
  EarlyStopConfig config;
  EarlyStopModel model(EarlyStopMethod::kHeuristicMax, config, 1);
  EXPECT_THROW((void)evaluate_early_stop(model, {}, {true}),
               std::invalid_argument);
}

TEST(LabelSmoothing, ImprovesOverRawTopLabels) {
  // With 1% positives and 400 training samples, raw labels give the
  // classifier ~4 positive examples; smoothing to 20% gives ~80. The
  // smoothed model should separate better (higher TNR at tuned threshold).
  const auto corpus = synthetic_corpus(500, 10);
  EarlyStopConfig smoothed;
  smoothed.train.epochs = 30;
  EarlyStopConfig raw = smoothed;
  raw.use_label_smoothing = false;

  auto mean_tnr = [&](const EarlyStopConfig& c) {
    const auto folds =
        cross_validate(EarlyStopMethod::kRewardOnly, c, corpus, 5, 19);
    double tnr = 0.0;
    for (const auto& f : folds) tnr += f.true_negative_rate;
    return tnr / folds.size();
  };
  EXPECT_GE(mean_tnr(smoothed) + 0.05, mean_tnr(raw));
}

}  // namespace
}  // namespace nada::filter
