// Tests for the congestion-control extension (§5 future work).
#include <gtest/gtest.h>

#include <cmath>

#include "cc/cc_env.h"
#include "cc/cc_state.h"
#include "dsl/state_program.h"
#include "trace/generator.h"

namespace nada::cc {
namespace {

trace::Trace constant_capacity(double mbps, double duration_s = 300.0) {
  std::vector<trace::TracePoint> pts;
  for (int t = 1; t <= static_cast<int>(duration_s); ++t) {
    pts.push_back({static_cast<double>(t), mbps * 1000.0});
  }
  return trace::Trace("cap", std::move(pts));
}

TEST(CcEnv, RejectsDegenerateConfig) {
  const auto cap = constant_capacity(10.0);
  util::Rng rng(1);
  CcConfig bad;
  bad.interval_s = 0.0;
  EXPECT_THROW(CcEnv(cap, bad, rng), std::invalid_argument);
  CcConfig bad2;
  bad2.min_rate_mbps = 10.0;
  bad2.max_rate_mbps = 1.0;
  EXPECT_THROW(CcEnv(cap, bad2, rng), std::invalid_argument);
}

TEST(CcEnv, UnderloadDeliversOfferedRate) {
  const auto cap = constant_capacity(10.0);
  util::Rng rng(2);
  CcConfig config;
  config.init_rate_mbps = 2.0;
  CcEnv env(cap, config, rng);
  env.reset();
  const auto r = env.step(2);  // x1.0 -> keep 2 Mbps
  EXPECT_NEAR(r.throughput_mbps, 2.0, 0.01);
  EXPECT_NEAR(r.loss, 0.0, 1e-12);
  EXPECT_NEAR(r.rtt_ms, config.base_rtt_ms, 2.0);
}

TEST(CcEnv, OverloadBuildsQueueThenLoses) {
  const auto cap = constant_capacity(5.0);
  util::Rng rng(3);
  CcConfig config;
  config.init_rate_mbps = 40.0;
  CcEnv env(cap, config, rng);
  env.reset();
  double max_rtt = 0.0;
  double total_loss = 0.0;
  for (int i = 0; i < 20; ++i) {
    const auto r = env.step(2);  // hold 40 Mbps over a 5 Mbps link
    max_rtt = std::max(max_rtt, r.rtt_ms);
    total_loss += r.loss;
  }
  // Queue fills to capacity, adding queuing delay; then drops appear.
  EXPECT_GT(max_rtt, config.base_rtt_ms + config.queue_capacity_ms * 0.9);
  EXPECT_GT(total_loss, 1.0);
}

TEST(CcEnv, ActionsScaleRateMultiplicatively) {
  const auto cap = constant_capacity(100.0);
  util::Rng rng(4);
  CcConfig config;
  config.init_rate_mbps = 10.0;
  CcEnv env(cap, config, rng);
  env.reset();
  env.step(4);  // x1.5
  EXPECT_NEAR(env.rate_mbps(), 15.0, 1e-9);
  env.step(0);  // x0.6
  EXPECT_NEAR(env.rate_mbps(), 9.0, 1e-9);
}

TEST(CcEnv, RateStaysWithinBounds) {
  const auto cap = constant_capacity(10.0);
  util::Rng rng(5);
  CcConfig config;
  config.min_rate_mbps = 0.5;
  config.max_rate_mbps = 20.0;
  CcEnv env(cap, config, rng);
  env.reset();
  for (int i = 0; i < 50; ++i) env.step(0);  // keep decreasing
  EXPECT_GE(env.rate_mbps(), config.min_rate_mbps);
  for (int i = 0; i < 50; ++i) env.step(4);  // keep increasing
  EXPECT_LE(env.rate_mbps(), config.max_rate_mbps);
}

TEST(CcEnv, EpisodeEndsAfterConfiguredSteps) {
  const auto cap = constant_capacity(10.0);
  util::Rng rng(6);
  CcConfig config;
  config.steps_per_episode = 25;
  CcEnv env(cap, config, rng);
  env.reset();
  std::size_t steps = 0;
  while (!env.done()) {
    env.step(2);
    ++steps;
  }
  EXPECT_EQ(steps, 25u);
  EXPECT_THROW(env.step(2), std::logic_error);
}

TEST(CcEnv, ObservationHistoriesShift) {
  const auto cap = constant_capacity(10.0);
  util::Rng rng(7);
  CcEnv env(cap, CcConfig{}, rng);
  env.reset();
  const auto r1 = env.step(4);
  const auto r2 = env.step(4);
  EXPECT_DOUBLE_EQ(r2.observation.send_rate_mbps[kCcHistoryLen - 2],
                   r1.observation.send_rate_mbps[kCcHistoryLen - 1]);
}

TEST(CcEnv, RewardPenalizesQueueAndLoss) {
  const auto cap = constant_capacity(5.0);
  util::Rng rng(8);
  CcConfig config;
  config.init_rate_mbps = 4.0;
  CcEnv fair(cap, config, rng);
  fair.reset();
  const double fair_reward = fair.step(2).reward;

  CcConfig greedy_config = config;
  greedy_config.init_rate_mbps = 60.0;
  util::Rng rng2(8);
  CcEnv greedy(cap, greedy_config, rng2);
  greedy.reset();
  double greedy_reward = 0.0;
  for (int i = 0; i < 10; ++i) greedy_reward = greedy.step(2).reward;
  // Saturating the queue with drops must score below polite utilization.
  EXPECT_GT(fair_reward, greedy_reward);
}

// ---- AIMD ---------------------------------------------------------------------

TEST(Aimd, ProbesUpWhenLossFree) {
  AimdController aimd;
  CcObservation obs;
  obs.current_rate_mbps = 2.0;
  obs.loss_fraction.assign(kCcHistoryLen, 0.0);
  const std::size_t action = aimd.act(obs);
  EXPECT_GT(rate_actions()[action], 1.0);
}

TEST(Aimd, BacksOffOnLoss) {
  AimdController aimd;
  CcObservation obs;
  obs.current_rate_mbps = 10.0;
  obs.loss_fraction.assign(kCcHistoryLen, 0.0);
  obs.loss_fraction.back() = 0.2;
  const std::size_t action = aimd.act(obs);
  EXPECT_LT(rate_actions()[action], 1.0);
}

TEST(Aimd, RejectsBadParameters) {
  EXPECT_THROW(AimdController(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(AimdController(0.1, 1.5), std::invalid_argument);
}

TEST(Aimd, AchievesReasonableUtilizationWithoutStandingQueue) {
  util::Rng rng(9);
  const auto cap = constant_capacity(10.0);
  CcEnv env(cap, CcConfig{}, rng);
  AimdController aimd;
  CcObservation obs = env.reset();
  double throughput = 0.0;
  double rtt = 0.0;
  std::size_t n = 0;
  while (!env.done()) {
    const auto r = env.step(aimd.act(obs));
    obs = r.observation;
    // Skip the ramp-up.
    if (n > 100) {
      throughput += r.throughput_mbps;
      rtt += r.rtt_ms;
    }
    ++n;
  }
  const double steps = static_cast<double>(n - 101);
  EXPECT_GT(throughput / steps, 5.0);  // >50% of the 10 Mbps link
  // Loss-based AIMD rides a deep buffer (classic bufferbloat), but the
  // sawtooth must keep the mean RTT below the hard queue ceiling.
  EXPECT_LT(rtt / steps, 40.0 + 200.0 - 5.0);
}

// ---- DSL bindings ----------------------------------------------------------------

TEST(CcState, DefaultStateCompilesAndRuns) {
  const auto program =
      dsl::StateProgram::compile(default_cc_state_source(), &cc_catalog());
  util::Rng rng(10);
  const auto cap = constant_capacity(8.0);
  CcEnv env(cap, CcConfig{}, rng);
  env.reset();
  const auto r = env.step(3);
  const dsl::StateMatrix matrix =
      program.run(bindings_from_cc_observation(r.observation));
  EXPECT_GE(matrix.rows.size(), 5u);
  EXPECT_TRUE(matrix.all_finite());
  EXPECT_LT(matrix.max_abs(), 100.0);  // passes the normalization bar
}

TEST(CcState, AllInputVariablesBindable) {
  std::string src;
  for (const auto& var : cc_input_variables()) {
    src += "emit \"" + var.name + "\" = " + var.name + " * 0.001;\n";
  }
  const auto program = dsl::StateProgram::compile(src, &cc_catalog());
  CcObservation obs;
  obs.send_rate_mbps.assign(kCcHistoryLen, 1.0);
  obs.ack_rate_mbps.assign(kCcHistoryLen, 1.0);
  obs.rtt_ms.assign(kCcHistoryLen, 40.0);
  obs.loss_fraction.assign(kCcHistoryLen, 0.0);
  obs.min_rtt_ms = 40.0;
  obs.current_rate_mbps = 1.0;
  const auto matrix = program.run(bindings_from_cc_observation(obs));
  EXPECT_EQ(matrix.rows.size(), cc_input_variables().size());
}

TEST(CcState, StateShapeStableAcrossSteps) {
  const auto program =
      dsl::StateProgram::compile(default_cc_state_source(), &cc_catalog());
  util::Rng rng(11);
  const auto cap = constant_capacity(6.0);
  CcEnv env(cap, CcConfig{}, rng);
  CcObservation obs = env.reset();
  const auto first =
      program.run(bindings_from_cc_observation(obs)).row_lengths();
  for (int i = 0; i < 30; ++i) {
    const auto r = env.step(static_cast<std::size_t>(rng.uniform_int(0, 4)));
    obs = r.observation;
    EXPECT_EQ(program.run(bindings_from_cc_observation(obs)).row_lengths(),
              first);
  }
}

}  // namespace
}  // namespace nada::cc
