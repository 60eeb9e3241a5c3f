// Tests for the classic ABR baseline policies.
#include <gtest/gtest.h>

#include <cmath>

#include "abr/policies.h"
#include "env/abr_domain.h"
#include "trace/generator.h"
#include "video/video.h"

namespace nada::abr {
namespace {

// The catalog's canned mid-stream frame: ~2.1 Mbps of throughput history,
// a 14.8 s buffer and Pensieve's ladder, last at 1200 kbps.
dsl::Bindings mid_stream_frame() { return env::abr_catalog().canned(); }

void set(dsl::Bindings& frame, env::AbrSlot slot, double value) {
  frame[slot].set_scalar(value);
}

void fill_throughput(dsl::Bindings& frame, double mbps) {
  frame[env::kThroughputMbps].mutable_vector().assign(env::kHistoryLen, mbps);
}

trace::Trace constant_trace(double mbps) {
  std::vector<trace::TracePoint> pts;
  for (int t = 1; t <= 400; ++t) {
    pts.push_back({static_cast<double>(t), mbps * 1000.0});
  }
  return trace::Trace("const", std::move(pts));
}

// ---- FixedPolicy --------------------------------------------------------------

TEST(FixedPolicy, ReturnsItsLevel) {
  FixedPolicy p(3);
  EXPECT_EQ(p.choose(mid_stream_frame()), 3u);
}

TEST(FixedPolicy, OutOfLadderThrows) {
  FixedPolicy p(9);
  EXPECT_THROW(p.choose(mid_stream_frame()), std::out_of_range);
}

// ---- BufferBasedPolicy ----------------------------------------------------------

TEST(BufferBased, LowBufferPicksLowest) {
  BufferBasedPolicy p(5.0, 40.0);
  dsl::Bindings frame = mid_stream_frame();
  set(frame, env::kBufferSizeS, 3.0);
  EXPECT_EQ(p.choose(frame), 0u);
}

TEST(BufferBased, FullCushionPicksHighest) {
  BufferBasedPolicy p(5.0, 40.0);
  dsl::Bindings frame = mid_stream_frame();
  set(frame, env::kBufferSizeS, 50.0);
  EXPECT_EQ(p.choose(frame), 5u);
}

TEST(BufferBased, MonotoneInBuffer) {
  BufferBasedPolicy p(5.0, 40.0);
  dsl::Bindings frame = mid_stream_frame();
  std::size_t prev = 0;
  for (double b = 0.0; b <= 60.0; b += 2.0) {
    set(frame, env::kBufferSizeS, b);
    const std::size_t level = p.choose(frame);
    EXPECT_GE(level, prev);
    prev = level;
  }
  EXPECT_EQ(prev, 5u);
}

TEST(BufferBased, RejectsBadParameters) {
  EXPECT_THROW(BufferBasedPolicy(-1.0, 40.0), std::invalid_argument);
  EXPECT_THROW(BufferBasedPolicy(5.0, 0.0), std::invalid_argument);
}

// ---- RateBasedPolicy --------------------------------------------------------------

TEST(RateBased, PicksTopRungBelowBudget) {
  RateBasedPolicy p(0.85, 4.0);
  dsl::Bindings frame = mid_stream_frame();
  // Harmonic mean ~2.1 Mbps, budget ~1800 kbps -> level 2 (1200 kbps).
  EXPECT_EQ(p.choose(frame), 2u);
}

TEST(RateBased, StartupUsesLowest) {
  RateBasedPolicy p(0.85, 4.0);
  dsl::Bindings frame = mid_stream_frame();
  set(frame, env::kBufferSizeS, 1.0);
  EXPECT_EQ(p.choose(frame), 0u);
}

TEST(RateBased, ZeroHistoryUsesLowest) {
  RateBasedPolicy p;
  dsl::Bindings frame = mid_stream_frame();
  fill_throughput(frame, 0.0);
  EXPECT_EQ(p.choose(frame), 0u);
}

TEST(RateBased, RejectsBadSafety) {
  EXPECT_THROW(RateBasedPolicy(0.0), std::invalid_argument);
  EXPECT_THROW(RateBasedPolicy(1.5), std::invalid_argument);
}

// ---- RobustMpcPolicy -----------------------------------------------------------------

TEST(RobustMpc, StableConditionsPickSustainableRate) {
  RobustMpcPolicy p(3);
  dsl::Bindings frame = mid_stream_frame();  // ~2 Mbps forecast
  // With only a modest buffer there is no slack to burn: the plan must be
  // sustainable at the forecast rate. (With a large buffer MPC will
  // rationally spend it on higher quality within its horizon.)
  set(frame, env::kBufferSizeS, 6.0);
  const std::size_t level = p.choose(frame);
  EXPECT_GE(level, 1u);
  EXPECT_LE(level, 3u);
}

TEST(RobustMpc, EmptyBufferConservative) {
  RobustMpcPolicy p(3);
  dsl::Bindings frame = mid_stream_frame();
  set(frame, env::kBufferSizeS, 0.5);
  set(frame, env::kLastBitrateKbps, 300);
  const std::size_t level = p.choose(frame);
  EXPECT_LE(level, 1u);
}

TEST(RobustMpc, HighBandwidthPicksHigh) {
  RobustMpcPolicy p(3);
  dsl::Bindings frame = mid_stream_frame();
  fill_throughput(frame, 50.0);
  set(frame, env::kLastBitrateKbps, 4300);
  set(frame, env::kBufferSizeS, 30.0);
  EXPECT_EQ(p.choose(frame), 5u);
}

TEST(RobustMpc, ErrorDiscountLowersForecast) {
  RobustMpcPolicy p(2);
  dsl::Bindings varying = mid_stream_frame();
  // Feed wildly wrong history twice so the tracked error grows; the pick
  // should not exceed what a discounted forecast supports.
  fill_throughput(varying, 10.0);
  (void)p.choose(varying);
  fill_throughput(varying, 1.0);
  (void)p.choose(varying);
  fill_throughput(varying, 10.0);
  set(varying, env::kBufferSizeS, 6.0);
  const std::size_t level = p.choose(varying);
  RobustMpcPolicy fresh(2);
  const dsl::Bindings stable = varying;
  const std::size_t fresh_level = fresh.choose(stable);
  EXPECT_LE(level, fresh_level);
}

TEST(RobustMpc, RejectsBadHorizon) {
  EXPECT_THROW(RobustMpcPolicy(0), std::invalid_argument);
  EXPECT_THROW(RobustMpcPolicy(6), std::invalid_argument);
}

TEST(RobustMpc, ResetClearsErrorTracking) {
  RobustMpcPolicy p(2);
  dsl::Bindings frame = mid_stream_frame();
  fill_throughput(frame, 10.0);
  (void)p.choose(frame);
  fill_throughput(frame, 1.0);
  (void)p.choose(frame);
  p.reset();
  // After reset the first decision has no error memory: same as fresh.
  RobustMpcPolicy fresh(2);
  EXPECT_EQ(p.choose(frame), fresh.choose(frame));
}

// ---- evaluate / integration ---------------------------------------------------------

TEST(HarmonicMean, KnownValues) {
  EXPECT_NEAR(harmonic_mean_positive(std::vector<double>{1.0, 4.0}), 1.6,
              1e-12);
  EXPECT_DOUBLE_EQ(harmonic_mean_positive(std::vector<double>{0.0, 0.0}),
                   0.0);
  EXPECT_NEAR(harmonic_mean_positive(std::vector<double>{0.0, 2.0}), 2.0,
              1e-12);
}

TEST(EvaluatePolicy, SmartPoliciesBeatFixedMax) {
  const auto tr = constant_trace(2.0);
  std::vector<trace::Trace> traces = {tr};
  const auto video = video::make_test_video(video::pensieve_ladder(), 3);
  FixedPolicy max_policy(5);
  BufferBasedPolicy bba;
  RobustMpcPolicy mpc;
  const double fixed = evaluate_policy(max_policy, traces, video,
                                       env::Fidelity::kSimulation, 1);
  const double buffer = evaluate_policy(bba, traces, video,
                                        env::Fidelity::kSimulation, 1);
  const double mpc_score = evaluate_policy(mpc, traces, video,
                                           env::Fidelity::kSimulation, 1);
  EXPECT_GT(buffer, fixed);
  EXPECT_GT(mpc_score, fixed);
}

TEST(EvaluatePolicy, MpcCompetitiveOnRealisticTraces) {
  const trace::Dataset ds =
      trace::build_dataset(trace::Environment::k4G, 0.05, 5);
  const auto video = video::make_test_video(video::youtube_ladder(), 3);
  RobustMpcPolicy mpc;
  FixedPolicy lowest(0);
  const double mpc_score = evaluate_policy(mpc, ds.test, video,
                                           env::Fidelity::kSimulation, 2);
  const double low_score = evaluate_policy(lowest, ds.test, video,
                                           env::Fidelity::kSimulation, 2);
  EXPECT_GT(mpc_score, low_score);
}

TEST(StandardBaselines, AllRunEverywhere) {
  const trace::Dataset ds =
      trace::build_dataset(trace::Environment::kStarlink, 0.1, 9);
  const auto video = video::make_test_video(video::pensieve_ladder(), 4);
  for (auto& policy : standard_baselines()) {
    const double score = evaluate_policy(*policy, ds.test, video,
                                         env::Fidelity::kSimulation, 3);
    EXPECT_TRUE(std::isfinite(score)) << policy->name();
    const double emu = evaluate_policy(*policy, ds.test, video,
                                       env::Fidelity::kEmulation, 3);
    EXPECT_TRUE(std::isfinite(emu)) << policy->name();
  }
}

}  // namespace
}  // namespace nada::abr
