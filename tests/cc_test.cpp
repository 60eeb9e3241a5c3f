// Tests for the congestion-control extension (§5 future work).
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "cc/cc_domain.h"
#include "cc/cc_env.h"
#include "cc/cc_state.h"
#include "dsl/state_program.h"
#include "frame_golden.h"
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

// The newest entry of history slot `slot`: the last interval's sample.
double newest(const dsl::Bindings& frame, CcSlot slot) {
  return frame[slot].as_vector().back();
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
  const dsl::Bindings& frame = env.reset();
  (void)env.step(2);  // x1.0 -> keep 2 Mbps
  EXPECT_NEAR(newest(frame, kAckRateMbps), 2.0, 0.01);
  EXPECT_NEAR(newest(frame, kLossFraction), 0.0, 1e-12);
  EXPECT_NEAR(newest(frame, kRttMs), config.base_rtt_ms, 2.0);
}

TEST(CcEnv, OverloadBuildsQueueThenLoses) {
  const auto cap = constant_capacity(5.0);
  util::Rng rng(3);
  CcConfig config;
  config.init_rate_mbps = 40.0;
  CcEnv env(cap, config, rng);
  const dsl::Bindings& frame = env.reset();
  double max_rtt = 0.0;
  double total_loss = 0.0;
  for (int i = 0; i < 20; ++i) {
    (void)env.step(2);  // hold 40 Mbps over a 5 Mbps link
    max_rtt = std::max(max_rtt, newest(frame, kRttMs));
    total_loss += newest(frame, kLossFraction);
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
  (void)env.reset();
  (void)env.step(4);  // x1.5
  EXPECT_NEAR(env.rate_mbps(), 15.0, 1e-9);
  (void)env.step(0);  // x0.6
  EXPECT_NEAR(env.rate_mbps(), 9.0, 1e-9);
}

TEST(CcEnv, RateStaysWithinBounds) {
  const auto cap = constant_capacity(10.0);
  util::Rng rng(5);
  CcConfig config;
  config.min_rate_mbps = 0.5;
  config.max_rate_mbps = 20.0;
  CcEnv env(cap, config, rng);
  (void)env.reset();
  for (int i = 0; i < 50; ++i) (void)env.step(0);  // keep decreasing
  EXPECT_GE(env.rate_mbps(), config.min_rate_mbps);
  for (int i = 0; i < 50; ++i) (void)env.step(4);  // keep increasing
  EXPECT_LE(env.rate_mbps(), config.max_rate_mbps);
}

TEST(CcEnv, EpisodeEndsAfterConfiguredSteps) {
  const auto cap = constant_capacity(10.0);
  util::Rng rng(6);
  CcConfig config;
  config.steps_per_episode = 25;
  CcEnv env(cap, config, rng);
  (void)env.reset();
  std::size_t steps = 0;
  while (!env.done()) {
    (void)env.step(2);
    ++steps;
  }
  EXPECT_EQ(steps, 25u);
  EXPECT_THROW((void)env.step(2), std::logic_error);
}

TEST(CcEnv, ObservationHistoriesShift) {
  const auto cap = constant_capacity(10.0);
  util::Rng rng(7);
  CcEnv env(cap, CcConfig{}, rng);
  const dsl::Bindings& frame = env.reset();
  (void)env.step(4);
  const double first = newest(frame, kSendRateMbps);
  (void)env.step(4);
  EXPECT_DOUBLE_EQ(frame[kSendRateMbps].as_vector()[kCcHistoryLen - 2],
                   first);
}

TEST(CcEnv, RewardPenalizesQueueAndLoss) {
  const auto cap = constant_capacity(5.0);
  util::Rng rng(8);
  CcConfig config;
  config.init_rate_mbps = 4.0;
  CcEnv fair(cap, config, rng);
  (void)fair.reset();
  const double fair_reward = fair.step(2).reward;

  CcConfig greedy_config = config;
  greedy_config.init_rate_mbps = 60.0;
  util::Rng rng2(8);
  CcEnv greedy(cap, greedy_config, rng2);
  (void)greedy.reset();
  double greedy_reward = 0.0;
  for (int i = 0; i < 10; ++i) greedy_reward = greedy.step(2).reward;
  // Saturating the queue with drops must score below polite utilization.
  EXPECT_GT(fair_reward, greedy_reward);
}

// ---- AIMD ---------------------------------------------------------------------

TEST(Aimd, ProbesUpWhenLossFree) {
  const AimdController aimd;
  dsl::Bindings frame = cc_catalog().canned();
  frame[kCurrentRateMbps].set_scalar(2.0);
  frame[kLossFraction].mutable_vector().assign(kCcHistoryLen, 0.0);
  const std::size_t action = aimd.act(frame);
  EXPECT_GT(rate_actions()[action], 1.0);
}

TEST(Aimd, BacksOffOnLoss) {
  const AimdController aimd;
  dsl::Bindings frame = cc_catalog().canned();
  frame[kCurrentRateMbps].set_scalar(10.0);
  frame[kLossFraction].mutable_vector().assign(kCcHistoryLen, 0.0);
  frame[kLossFraction].mutable_vector().back() = 0.2;
  const std::size_t action = aimd.act(frame);
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
  const AimdController aimd;
  const dsl::Bindings& frame = env.reset();
  double throughput = 0.0;
  double rtt = 0.0;
  std::size_t n = 0;
  while (!env.done()) {
    (void)env.step(aimd.act(frame));
    // Skip the ramp-up.
    if (n > 100) {
      throughput += newest(frame, kAckRateMbps);
      rtt += newest(frame, kRttMs);
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
  const auto program = dsl::StateProgram::compile(default_cc_state_source());
  util::Rng rng(10);
  const auto cap = constant_capacity(8.0);
  CcEnv env(cap, CcConfig{}, rng);
  const dsl::Bindings& frame = env.reset();
  (void)env.step(3);
  const dsl::StateMatrix matrix = program.run(frame);
  EXPECT_GE(matrix.rows.size(), 5u);
  EXPECT_TRUE(matrix.all_finite());
  EXPECT_LT(matrix.max_abs(), 100.0);  // passes the normalization bar
}

TEST(CcState, AllInputVariablesBindable) {
  std::string src;
  for (const auto& var : cc_input_variables()) {
    src += "emit \"" + var.name + "\" = " + var.name + " * 0.001;\n";
  }
  const auto program = dsl::StateProgram::compile(src);
  const auto matrix = program.run(cc_catalog().canned());
  EXPECT_EQ(matrix.rows.size(), cc_input_variables().size());
}

TEST(CcState, StateShapeStableAcrossSteps) {
  const auto program = dsl::StateProgram::compile(default_cc_state_source());
  util::Rng rng(11);
  const auto cap = constant_capacity(6.0);
  CcEnv env(cap, CcConfig{}, rng);
  const dsl::Bindings& frame = env.reset();
  const auto first = program.run(frame).row_lengths();
  for (int i = 0; i < 30; ++i) {
    (void)env.step(static_cast<std::size_t>(rng.uniform_int(0, 4)));
    EXPECT_EQ(program.run(frame).row_lengths(), first);
  }
}

TEST(CcState, SlotEnumNamesEveryVariableInOrder) {
  const std::pair<const char*, CcSlot> slots[] = {
      {"send_rate_mbps", kSendRateMbps},
      {"ack_rate_mbps", kAckRateMbps},
      {"rtt_ms", kRttMs},
      {"loss_fraction", kLossFraction},
      {"min_rtt_ms", kMinRttMs},
      {"current_rate_mbps", kCurrentRateMbps},
  };
  ASSERT_EQ(std::size(slots), cc_input_variables().size());
  for (const auto& [name, slot] : slots) {
    EXPECT_EQ(cc_input_variables().slot(name),
              std::optional<std::size_t>(slot))
        << name;
  }
}

const dsl::Value& by_name(const dsl::Bindings& frame, const char* name) {
  const dsl::Value* value = frame.find(name);
  EXPECT_NE(value, nullptr) << name;
  static const dsl::Value kMissing;
  return value != nullptr ? *value : kMissing;
}

// The frame reset() returns holds, by name, the config's start state, and
// each step() refills that same frame: every history is the previous frame
// shifted by one with the interval's sample appended (the send rate is
// rate_mbps()), the min RTT stays the config's base RTT, and the current
// rate is rate_mbps(). The domain's episode is the CcEnv itself.
TEST(CcState, EpisodeFrameHoldsEveryVariableByName) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.2, 1234);
  CcConfig config;
  config.steps_per_episode = 40;
  const CcDomain domain(dataset, config);
  util::Rng rng(31);
  const auto episode =
      domain.start_eval_episode(1, env::Fidelity::kSimulation, rng);
  const auto& cc_env = dynamic_cast<const CcEnv&>(*episode);

  const dsl::Bindings& frame = episode->reset();
  ASSERT_EQ(frame.size(), cc_input_variables().size());
  const std::vector<double> zeros(kCcHistoryLen, 0.0);
  EXPECT_EQ(by_name(frame, "send_rate_mbps").as_vector(), zeros);
  EXPECT_EQ(by_name(frame, "ack_rate_mbps").as_vector(), zeros);
  EXPECT_EQ(by_name(frame, "rtt_ms").as_vector(),
            std::vector<double>(kCcHistoryLen, config.base_rtt_ms));
  EXPECT_EQ(by_name(frame, "loss_fraction").as_vector(), zeros);
  EXPECT_EQ(by_name(frame, "min_rtt_ms").as_scalar(), config.base_rtt_ms);
  EXPECT_EQ(by_name(frame, "current_rate_mbps").as_scalar(),
            config.init_rate_mbps);

  const char* const histories[] = {"send_rate_mbps", "ack_rate_mbps",
                                   "rtt_ms", "loss_fraction"};
  std::size_t step = 0;
  while (!episode->done()) {
    const dsl::Bindings previous = frame;
    const std::size_t action = (step * 3 + 1) % rate_actions().size();
    (void)episode->step(action);
    ++step;
    for (const char* name : histories) {
      const std::vector<double>& before = by_name(previous, name).as_vector();
      const std::vector<double>& after = by_name(frame, name).as_vector();
      ASSERT_EQ(after.size(), kCcHistoryLen) << name;
      EXPECT_TRUE(std::equal(before.begin() + 1, before.end(), after.begin()))
          << name << " at step " << step;
    }
    EXPECT_EQ(by_name(frame, "send_rate_mbps").as_vector().back(),
              cc_env.rate_mbps());
    EXPECT_GE(by_name(frame, "rtt_ms").as_vector().back(),
              config.base_rtt_ms);
    const double loss = by_name(frame, "loss_fraction").as_vector().back();
    EXPECT_GE(loss, 0.0);
    EXPECT_LE(loss, 1.0);
    EXPECT_EQ(by_name(frame, "min_rtt_ms").as_scalar(), config.base_rtt_ms);
    EXPECT_EQ(by_name(frame, "current_rate_mbps").as_scalar(),
              cc_env.rate_mbps());
  }
  EXPECT_EQ(step, config.steps_per_episode);
}

// The CC frames, frozen: every slot after reset() and after every step of
// three training and three eval episodes, with each step's reward and done
// flag, and the catalog's canned and fuzz frames. Computed before CcEnv
// wrote its frame in place.
TEST(CcState, FrameGoldens) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.2, 1234);
  const CcDomain domain(dataset, CcConfig{});
  test::FrameDigest digest;
  test::fold_domain(digest, domain, env::Fidelity::kSimulation, 31, 3);
  test::fold_catalog(digest, cc_catalog(), 7);
  EXPECT_EQ(digest.hex(), "b81701dcb5f0969dd19fd8255ebbf849");
}

}  // namespace
}  // namespace nada::cc
