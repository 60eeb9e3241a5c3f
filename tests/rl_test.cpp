// Tests for the RL substrate: agent construction, A2C training dynamics on
// the library's training engine, deterministic evaluation, and the
// multi-seed session protocol.
#include <gtest/gtest.h>

#include "dsl/state_program.h"
#include "env/abr_domain.h"
#include "rl/agent.h"
#include "rl/batch_probe.h"
#include "rl/session.h"
#include "rl/trainer.h"
#include "trace/generator.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "video/video.h"

namespace nada::rl {
namespace {

nn::ArchSpec tiny_arch() {
  nn::ArchSpec spec = nn::ArchSpec::pensieve();
  spec.conv_filters = 8;
  spec.scalar_hidden = 8;
  spec.merge_hidden = 16;
  return spec;
}

trace::Dataset tiny_dataset(trace::Environment env = trace::Environment::kFcc,
                            std::uint64_t seed = 11) {
  return trace::build_dataset(env, 0.03, seed);
}

dsl::StateProgram pensieve_program() {
  return dsl::StateProgram::compile(dsl::pensieve_state_source());
}

/// The ABR catalog's canned observation.
dsl::Bindings canned() { return env::abr_catalog().canned(); }

/// A policy agent over the ABR vocabulary (6 ladder levels).
PolicyAgent abr_agent(const dsl::StateProgram& program, util::Rng& rng) {
  return PolicyAgent(program, tiny_arch(), 6, env::abr_catalog(), rng);
}

/// Trains one design as a single job on the training engine.
TrainResult train_one(const env::TaskDomain& domain, const TrainConfig& config,
                      const dsl::StateProgram& program,
                      const nn::ArchSpec& spec, std::uint64_t seed) {
  const BatchProbeTrainer engine(domain, BatchProbeConfig{config});
  const ProbeJob job{&program, &spec, seed};
  return engine.train({&job, 1}).front();
}

// ---- PolicyAgent ------------------------------------------------------------

TEST(PolicyAgent, SignatureDerivedFromProgram) {
  const auto program = pensieve_program();
  const nn::StateSignature sig =
      derive_signature(program, env::abr_catalog());
  EXPECT_EQ(sig.row_lengths, (std::vector<std::size_t>{1, 1, 8, 8, 6, 1}));
}

TEST(PolicyAgent, DecideReturnsValidDistribution) {
  const auto program = pensieve_program();
  util::Rng rng(1);
  PolicyAgent agent = abr_agent(program, rng);
  const auto decision = agent.decide(canned(), /*sample=*/false, rng);
  ASSERT_EQ(decision.probs.size(), 6u);
  double total = 0.0;
  for (double p : decision.probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_LT(decision.action, 6u);
}

TEST(PolicyAgent, GreedyPicksArgmax) {
  const auto program = pensieve_program();
  util::Rng rng(2);
  PolicyAgent agent = abr_agent(program, rng);
  const auto decision = agent.decide(canned(), /*sample=*/false, rng);
  for (double p : decision.probs) {
    EXPECT_LE(p, decision.probs[decision.action] + 1e-12);
  }
}

TEST(PolicyAgent, SampledActionsVary) {
  const auto program = pensieve_program();
  util::Rng rng(3);
  PolicyAgent agent = abr_agent(program, rng);
  std::set<std::size_t> actions;
  for (int i = 0; i < 100; ++i) {
    actions.insert(
        agent.decide(canned(), /*sample=*/true, rng).action);
  }
  // A freshly initialized policy is near-uniform: sampling covers several
  // actions.
  EXPECT_GE(actions.size(), 3u);
}

TEST(PolicyAgent, CustomStateShapeBuildsMatchingNet) {
  const auto program = dsl::StateProgram::compile(
      "emit \"buf\" = buffer_size_s / 10.0;\n"
      "emit \"tput\" = throughput_mbps / 8.0;\n");
  util::Rng rng(4);
  PolicyAgent agent = abr_agent(program, rng);
  EXPECT_EQ(agent.signature().row_lengths,
            (std::vector<std::size_t>{1, 8}));
  EXPECT_NO_THROW(
      agent.decide(canned(), /*sample=*/false, rng));
}

// ---- training engine --------------------------------------------------------

TEST(TrainingEngine, RewardImprovesOnEasyEnvironment) {
  const auto dataset = tiny_dataset(trace::Environment::kFcc, 21);
  const auto video = video::make_test_video(video::pensieve_ladder(), 5);
  TrainConfig config;
  config.epochs = 240;
  config.test_interval = 60;
  config.learning_rate = 2e-3;
  const env::AbrDomain domain(dataset, video);
  const auto result =
      train_one(domain, config, pensieve_program(), tiny_arch(), 77);
  ASSERT_FALSE(result.failed) << result.error;
  ASSERT_EQ(result.train_rewards.size(), config.epochs);
  const double early = util::mean(
      std::span(result.train_rewards).subspan(0, 48));
  const double late = util::mean(
      std::span(result.train_rewards).subspan(config.epochs - 48));
  EXPECT_GT(late, early);
}

TEST(TrainingEngine, CheckpointCadenceMatchesInterval) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 6);
  TrainConfig config;
  config.epochs = 50;
  config.test_interval = 10;
  const env::AbrDomain domain(dataset, video);
  const auto result =
      train_one(domain, config, pensieve_program(), tiny_arch(), 1);
  ASSERT_FALSE(result.failed);
  ASSERT_EQ(result.test_scores.size(), 5u);
  EXPECT_EQ(result.test_epochs.front(), 10.0);
  EXPECT_EQ(result.test_epochs.back(), 50.0);
}

TEST(TrainingEngine, SkippingEvaluationProducesNoCheckpoints) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 7);
  TrainConfig config;
  config.epochs = 30;
  config.evaluate_checkpoints = false;
  const env::AbrDomain domain(dataset, video);
  const auto result =
      train_one(domain, config, pensieve_program(), tiny_arch(), 2);
  ASSERT_FALSE(result.failed);
  EXPECT_TRUE(result.test_scores.empty());
  EXPECT_EQ(result.train_rewards.size(), 30u);
  // final_score falls back to the training-reward tail.
  EXPECT_NEAR(result.final_score,
              util::tail_mean(result.train_rewards, 10), 1e-12);
}

TEST(TrainingEngine, FragileProgramCapturedAsFailure) {
  // Passes the canned trial run but throws on the all-zero first
  // observation of a real episode (log of zero minimum throughput).
  const auto program = dsl::StateProgram::compile(
      "emit \"x\" = log(vmin(throughput_mbps) + 0.0001) / 10.0;\n"
      "emit \"buf\" = buffer_size_s / 10.0;\n");
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 8);
  TrainConfig config;
  config.epochs = 10;
  const env::AbrDomain domain(dataset, video);
  const auto arch = tiny_arch();
  // log(0.0001) = -9.2: the first job survives; the second is the truly
  // fragile one, trained in the same engine call.
  const auto fragile = dsl::StateProgram::compile(
      "emit \"x\" = log(vmin(throughput_mbps));\n");
  const std::vector<ProbeJob> jobs{{&program, &arch, 3}, {&fragile, &arch, 3}};
  const auto results =
      BatchProbeTrainer(domain, BatchProbeConfig{config}).train(jobs);
  const auto& result2 = results[1];
  EXPECT_TRUE(result2.failed);
  EXPECT_FALSE(result2.error.empty());
  EXPECT_EQ(result2.final_score, -1e9);
}

TEST(TrainingEngine, InvalidArchCapturedAsFailure) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 9);
  TrainConfig config;
  config.epochs = 5;
  const env::AbrDomain domain(dataset, video);
  nn::ArchSpec bad = tiny_arch();
  bad.conv_kernel = 7;  // > next-sizes row length 6
  const auto result = train_one(domain, config, pensieve_program(), bad, 4);
  EXPECT_TRUE(result.failed);
}

TEST(TrainingEngine, MaxEvalTracesCapsEvaluation) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 10);
  TrainConfig config;
  config.epochs = 10;
  config.test_interval = 10;
  config.max_eval_traces = 1;
  const env::AbrDomain domain(dataset, video);
  const auto result =
      train_one(domain, config, pensieve_program(), tiny_arch(), 5);
  ASSERT_FALSE(result.failed);
  EXPECT_EQ(result.test_scores.size(), 1u);
}

TEST(TrainingEngine, RejectsDegenerateConfig) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 11);
  const env::AbrDomain domain(dataset, video);
  TrainConfig zero_epochs;
  zero_epochs.epochs = 0;
  EXPECT_THROW(BatchProbeTrainer(domain, BatchProbeConfig{zero_epochs}),
               std::invalid_argument);
  TrainConfig zero_interval;
  zero_interval.test_interval = 0;
  EXPECT_THROW(BatchProbeTrainer(domain, BatchProbeConfig{zero_interval}),
               std::invalid_argument);
}

// ---- evaluation ---------------------------------------------------------------

TEST(EvaluateAgent, DeterministicForSeed) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 12);
  const auto program = pensieve_program();
  util::Rng rng(6);
  const env::AbrDomain domain(dataset, video);
  PolicyAgent agent = abr_agent(program, rng);
  const double a =
      evaluate_agent(agent, domain, env::Fidelity::kSimulation, 42);
  const double b =
      evaluate_agent(agent, domain, env::Fidelity::kSimulation, 42);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(EvaluateAgent, EmulationDiffersFromSimulation) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 13);
  const auto program = pensieve_program();
  util::Rng rng(7);
  const env::AbrDomain domain(dataset, video);
  PolicyAgent agent = abr_agent(program, rng);
  const double sim =
      evaluate_agent(agent, domain, env::Fidelity::kSimulation, 42);
  const double emu =
      evaluate_agent(agent, domain, env::Fidelity::kEmulation, 42);
  EXPECT_NE(sim, emu);
}

TEST(EvalTraceIndices, StridesAcrossWholeSplit) {
  // The capped subset must sample the whole split, not its prefix.
  const auto picked = eval_trace_indices(10, 4);
  EXPECT_EQ(picked, (std::vector<std::size_t>{0, 2, 5, 7}));
  // Strictly increasing, spanning past the midpoint.
  EXPECT_GT(picked.back(), 10u / 2);
}

TEST(EvalTraceIndices, UncappedIsIdentity) {
  const auto all = eval_trace_indices(5, 0);
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(eval_trace_indices(5, 9), all);
  EXPECT_EQ(eval_trace_indices(5, 5), all);
}

TEST(EvalTraceIndices, NoDuplicates) {
  for (std::size_t n : {7u, 13u, 40u}) {
    for (std::size_t cap = 1; cap < n; ++cap) {
      const auto picked = eval_trace_indices(n, cap);
      ASSERT_EQ(picked.size(), cap);
      for (std::size_t j = 1; j < picked.size(); ++j) {
        EXPECT_LT(picked[j - 1], picked[j]);
      }
      EXPECT_LT(picked.back(), n);
    }
  }
}

TEST(EvaluateAgent, SubsetOverloadMatchesManualSubset) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 18);
  const auto program = pensieve_program();
  util::Rng rng(8);
  PolicyAgent agent = abr_agent(program, rng);
  const env::AbrDomain domain(dataset, video);
  const std::vector<std::size_t> indices =
      eval_trace_indices(dataset.test.size(), 2);
  // The same units as a dataset whose test split is just the subset.
  trace::Dataset subset_data = dataset;
  subset_data.test.clear();
  for (std::size_t i : indices) subset_data.test.push_back(dataset.test[i]);
  const env::AbrDomain subset_domain(subset_data, video);
  const double via_indices = evaluate_agent(
      agent, domain, indices, env::Fidelity::kSimulation, 42);
  const double via_copy = evaluate_agent(agent, subset_domain,
                                         env::Fidelity::kSimulation, 42);
  EXPECT_DOUBLE_EQ(via_indices, via_copy);
}

// ---- sessions -------------------------------------------------------------------

TEST(RunSessions, MedianAcrossSeeds) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 14);
  const env::AbrDomain domain(dataset, video);
  const auto program = pensieve_program();
  SessionConfig config;
  config.seeds = 3;
  config.train.epochs = 30;
  config.train.test_interval = 10;
  const auto arch = tiny_arch();
  const auto result = run_sessions(domain, {{&program, &arch, 123}}, config)
                          .front();
  ASSERT_EQ(result.sessions.size(), 3u);
  EXPECT_FALSE(result.failed);
  std::vector<double> finals;
  for (const auto& s : result.sessions) finals.push_back(s.final_score);
  EXPECT_DOUBLE_EQ(result.test_score, util::median(finals));
  // Median curve covers the common checkpoints.
  EXPECT_EQ(result.median_curve.size(), 3u);
  EXPECT_EQ(result.curve_epochs.size(), 3u);
}

TEST(RunSessions, ParallelMatchesSerial) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 15);
  const env::AbrDomain domain(dataset, video);
  const auto program = pensieve_program();
  SessionConfig config;
  config.seeds = 2;
  config.train.epochs = 15;
  config.train.test_interval = 15;
  const auto arch = tiny_arch();
  const std::vector<SessionJob> jobs{{&program, &arch, 55}};
  const auto serial = run_sessions(domain, jobs, config, nullptr).front();
  util::ThreadPool pool(2);
  const auto parallel = run_sessions(domain, jobs, config, &pool).front();
  EXPECT_DOUBLE_EQ(serial.test_score, parallel.test_score);
}

TEST(RunSessions, AllSessionsFailingIsReported) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 16);
  const env::AbrDomain domain(dataset, video);
  const auto fragile = dsl::StateProgram::compile(
      "emit \"x\" = log(vmin(throughput_mbps));\n");
  SessionConfig config;
  config.seeds = 2;
  config.train.epochs = 5;
  const auto arch = tiny_arch();
  const auto result =
      run_sessions(domain, {{&fragile, &arch, 66}}, config).front();
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.test_score, -1e9);
}

TEST(RunSessions, ZeroSeedsRejected) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 17);
  const env::AbrDomain domain(dataset, video);
  SessionConfig config;
  config.seeds = 0;
  const auto program = pensieve_program();
  const auto arch = tiny_arch();
  EXPECT_THROW((void)run_sessions(domain, {{&program, &arch, 1}}, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace nada::rl
