// Tests for the streaming environment: simulator mechanics, emulation
// fidelity differences, and the RL observation interface.
#include <gtest/gtest.h>

#include <cmath>

#include "env/abr_domain.h"
#include "env/abr_env.h"
#include "env/session.h"
#include "trace/generator.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "video/video.h"

namespace nada::env {
namespace {

trace::Trace constant_trace(double mbps, double duration_s = 600.0) {
  std::vector<trace::TracePoint> pts;
  for (int t = 1; t <= static_cast<int>(duration_s); ++t) {
    pts.push_back({static_cast<double>(t), mbps * 1000.0});
  }
  return trace::Trace("const", std::move(pts));
}

video::Video test_video() {
  return video::make_test_video(video::pensieve_ladder(), 1234);
}

// ---- StreamingSession --------------------------------------------------------

TEST(StreamingSession, DownloadTimeMatchesBandwidthMath) {
  const auto tr = constant_trace(8.0);  // 8 Mbps => 1 MB/s
  const auto vid = test_video();
  StreamingSession session(tr, vid);
  const double bytes = vid.chunk_bytes(0, 2);
  const auto result = session.download_chunk(2);
  const SimConfig config;
  const double expected =
      config.link_rtt_s + bytes / config.packet_payload_ratio / 1e6;
  EXPECT_NEAR(result.download_time_s, expected, 1e-6);
  EXPECT_DOUBLE_EQ(result.chunk_bytes, bytes);
}

TEST(StreamingSession, FirstChunkAlwaysRebuffers) {
  const auto tr = constant_trace(3.0);
  const auto vid = test_video();
  StreamingSession session(tr, vid);
  const auto result = session.download_chunk(0);
  // Empty buffer: the whole download time is a stall.
  EXPECT_NEAR(result.rebuffer_s, result.download_time_s, 1e-9);
  EXPECT_NEAR(result.buffer_s, vid.chunk_len_s(), 1e-9);
}

TEST(StreamingSession, BufferGrowsWhenLinkIsFast) {
  const auto tr = constant_trace(50.0);
  const auto vid = test_video();
  StreamingSession session(tr, vid);
  double last_buffer = 0.0;
  for (int i = 0; i < 5; ++i) {
    const auto result = session.download_chunk(0);
    EXPECT_GE(result.buffer_s, last_buffer);
    last_buffer = result.buffer_s;
  }
  EXPECT_GT(last_buffer, 10.0);
}

TEST(StreamingSession, SlowLinkCausesRepeatedStalls) {
  const auto tr = constant_trace(0.2);  // far below the lowest level
  const auto vid = test_video();
  StreamingSession session(tr, vid);
  double stalls = 0.0;
  for (int i = 0; i < 5; ++i) stalls += session.download_chunk(5).rebuffer_s;
  EXPECT_GT(stalls, 30.0);
}

TEST(StreamingSession, BufferCapTriggersSleep) {
  const auto tr = constant_trace(100.0);
  const auto vid = test_video();
  StreamingSession session(tr, vid);
  bool slept = false;
  while (!session.finished()) {
    if (session.download_chunk(0).sleep_s > 0.0) {
      slept = true;
      EXPECT_LE(session.buffer_s(), 60.0 + 1e-9);
    }
  }
  EXPECT_TRUE(slept);
}

TEST(StreamingSession, FinishesAfterAllChunks) {
  const auto tr = constant_trace(10.0);
  const auto vid = test_video();
  StreamingSession session(tr, vid);
  std::size_t downloads = 0;
  while (!session.finished()) {
    session.download_chunk(0);
    ++downloads;
  }
  EXPECT_EQ(downloads, vid.num_chunks());
  EXPECT_THROW(session.download_chunk(0), std::logic_error);
}

TEST(StreamingSession, InvalidLevelThrows) {
  const auto tr = constant_trace(10.0);
  const auto vid = test_video();
  StreamingSession session(tr, vid);
  EXPECT_THROW(session.download_chunk(6), std::out_of_range);
}

TEST(StreamingSession, ThroughputReflectsLink) {
  const auto tr = constant_trace(8.0);
  const auto vid = test_video();
  StreamingSession session(tr, vid);
  const auto result = session.download_chunk(4);
  // Measured throughput is slightly below the link rate due to RTT and
  // header overhead.
  EXPECT_LT(result.throughput_mbps, 8.0);
  EXPECT_GT(result.throughput_mbps, 5.0);
}

TEST(StreamingSession, VariableTraceSlowsDownload) {
  // Second half of the trace is 10x slower; a session starting there takes
  // longer for the same chunk.
  std::vector<trace::TracePoint> pts;
  for (int t = 1; t <= 120; ++t) {
    pts.push_back({static_cast<double>(t), t <= 60 ? 20000.0 : 2000.0});
  }
  const trace::Trace tr("twophase", std::move(pts));
  const auto vid = test_video();
  StreamingSession fast(tr, vid, SimConfig{}, 0.0);
  StreamingSession slow(tr, vid, SimConfig{}, 61.0);
  const double fast_time = fast.download_chunk(5).download_time_s;
  const double slow_time = slow.download_chunk(5).download_time_s;
  EXPECT_GT(slow_time, fast_time * 3.0);
}

// ---- EmuSession ---------------------------------------------------------------

TEST(EmuSession, SlowerThanSimulatorForSmallChunks) {
  // Slow start + request overhead dominate small transfers.
  const auto tr = constant_trace(20.0);
  const auto vid = test_video();
  util::Rng rng(5);
  StreamingSession sim(tr, vid);
  EmuSession emu(tr, vid, rng);
  const double sim_time = sim.download_chunk(0).download_time_s;
  const double emu_time = emu.download_chunk(0).download_time_s;
  EXPECT_GT(emu_time, sim_time);
}

TEST(EmuSession, ApproachesLinkRateForLargeChunks) {
  const auto tr = constant_trace(10.0);
  const auto vid = video::make_test_video(video::youtube_ladder(), 99);
  util::Rng rng(6);
  EmuSession emu(tr, vid, rng);
  // A 53 Mbps chunk (~26 MB) over a 10 Mbps link: slow start amortizes.
  const auto result = emu.download_chunk(5);
  EXPECT_GT(result.throughput_mbps, 6.0);
  EXPECT_LT(result.throughput_mbps, 10.5);
}

TEST(EmuSession, JitterMakesRunsDiffer) {
  const auto tr = constant_trace(5.0);
  const auto vid = test_video();
  util::Rng rng1(7);
  util::Rng rng2(8);
  EmuSession a(tr, vid, rng1);
  EmuSession b(tr, vid, rng2);
  const double ta = a.download_chunk(3).download_time_s;
  const double tb = b.download_chunk(3).download_time_s;
  EXPECT_NE(ta, tb);
}

// ---- AbrEnv -------------------------------------------------------------------

TEST(AbrEnv, InitialObservationIsZeroHistory) {
  const auto tr = constant_trace(5.0);
  const auto vid = test_video();
  util::Rng rng(9);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  const Observation obs = env.reset();
  ASSERT_EQ(obs.throughput_mbps.size(), kHistoryLen);
  for (double v : obs.throughput_mbps) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(obs.buffer_s, 0.0);
  EXPECT_DOUBLE_EQ(obs.chunks_remaining, 48.0);
  EXPECT_DOUBLE_EQ(obs.last_bitrate_kbps, 300.0);
  ASSERT_EQ(obs.next_chunk_bytes.size(), 6u);
  EXPECT_GT(obs.next_chunk_bytes[0], 0.0);
}

TEST(AbrEnv, HistoriesShiftAfterSteps) {
  const auto tr = constant_trace(5.0);
  const auto vid = test_video();
  util::Rng rng(10);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  env.reset();
  const auto s1 = env.step(2);
  EXPECT_GT(s1.observation.throughput_mbps.back(), 0.0);
  EXPECT_DOUBLE_EQ(s1.observation.last_bitrate_kbps, 1200.0);
  const auto s2 = env.step(3);
  // Oldest-first: the previous sample moved one slot left.
  EXPECT_DOUBLE_EQ(
      s2.observation.throughput_mbps[kHistoryLen - 2],
      s1.observation.throughput_mbps[kHistoryLen - 1]);
  EXPECT_DOUBLE_EQ(s2.observation.chunks_remaining, 46.0);
}

TEST(AbrEnv, EpisodeEndsAfterAllChunks) {
  const auto tr = constant_trace(5.0);
  const auto vid = test_video();
  util::Rng rng(11);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  env.reset();
  std::size_t steps = 0;
  while (!env.done()) {
    const auto r = env.step(0);
    ++steps;
    if (steps == vid.num_chunks()) EXPECT_TRUE(r.done);
  }
  EXPECT_EQ(steps, vid.num_chunks());
  EXPECT_THROW(env.step(0), std::logic_error);
}

TEST(AbrEnv, RewardMatchesQoEDefinition) {
  const auto tr = constant_trace(50.0);  // fast link: no rebuffering after
  const auto vid = test_video();
  util::Rng rng(12);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  env.reset();
  env.step(2);
  // Steady selection at level 2 with no stall: reward == 1.2 Mbps.
  const auto r = env.step(2);
  EXPECT_NEAR(r.reward, 1.2, 0.05);
}

TEST(AbrEnv, BufferHistoryTracksBuffer) {
  const auto tr = constant_trace(20.0);
  const auto vid = test_video();
  util::Rng rng(13);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  env.reset();
  const auto s1 = env.step(0);
  EXPECT_DOUBLE_EQ(s1.observation.buffer_s_history.back(),
                   s1.observation.buffer_s);
}

TEST(AbrEnv, EmulationFidelityProducesLowerScores) {
  // Same trace, same policy: emulation's overheads reduce attainable QoE.
  const auto tr = constant_trace(4.0);
  const auto vid = test_video();
  util::Rng rng(14);

  auto total_reward = [&](Fidelity f) {
    util::Rng local(99);
    AbrEnv env(tr, vid, f, local);
    env.reset();
    double total = 0.0;
    while (!env.done()) total += env.step(3).reward;
    return total;
  };
  EXPECT_LT(total_reward(Fidelity::kEmulation),
            total_reward(Fidelity::kSimulation));
}

TEST(AbrEnv, ResetStartsFreshEpisode) {
  const auto tr = constant_trace(5.0);
  const auto vid = test_video();
  util::Rng rng(15);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  env.reset();
  env.step(0);
  env.step(0);
  const Observation obs = env.reset();
  EXPECT_DOUBLE_EQ(obs.chunks_remaining, 48.0);
  EXPECT_DOUBLE_EQ(obs.buffer_s, 0.0);
  for (double v : obs.throughput_mbps) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(AbrEnv, ConstructionConsumesNoRandomness) {
  // The seed stream must be a pure function of the episodes actually run:
  // building an env (without resetting it) leaves the RNG untouched, so a
  // caller that constructs one env per episode and a caller that reuses one
  // env see identical draws. This is the invariant the batched/serial
  // probe equivalence rests on.
  const auto tr = constant_trace(3.0);
  const auto vid = test_video();
  util::Rng rng_a(77);
  util::Rng rng_b(77);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng_a);
  EXPECT_EQ(rng_a.uniform(), rng_b.uniform());
}

TEST(AbrEnv, UseBeforeResetThrows) {
  const auto tr = constant_trace(3.0);
  const auto vid = test_video();
  util::Rng rng(16);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  EXPECT_THROW(env.step(0), std::logic_error);
  EXPECT_THROW((void)env.done(), std::logic_error);
  EXPECT_NO_THROW(env.reset());
  EXPECT_FALSE(env.done());
}

TEST(AbrEnv, FreshAndReusedEnvSeeSameEpisodes) {
  const auto tr = constant_trace(2.0);
  const auto vid = test_video();
  util::Rng fresh_rng(31);
  util::Rng reused_rng(31);
  AbrEnv reused(tr, vid, Fidelity::kSimulation, reused_rng);
  for (int episode = 0; episode < 3; ++episode) {
    AbrEnv fresh(tr, vid, Fidelity::kSimulation, fresh_rng);
    Observation a = fresh.reset();
    Observation b = reused.reset();
    while (!fresh.done()) {
      const auto sa = fresh.step(2);
      const auto sb = reused.step(2);
      EXPECT_EQ(sa.reward, sb.reward);
      EXPECT_EQ(sa.observation.throughput_mbps,
                sb.observation.throughput_mbps);
    }
    EXPECT_TRUE(reused.done());
  }
}

// ---- stall-deadline truncation ------------------------------------------------

TEST(StreamingSession, TruncatedDownloadReportsDeliveredBytes) {
  // 1 kbps forever: a top-level chunk (~2 MB) cannot finish within the
  // 3600 s stall deadline. The session must say so instead of reporting a
  // completed download at a fictitious throughput.
  const auto tr = constant_trace(0.001);
  const auto vid = test_video();
  StreamingSession session(tr, vid);
  const DownloadResult dl = session.download_chunk(5);
  EXPECT_TRUE(dl.truncated);
  EXPECT_LT(dl.delivered_bytes, dl.chunk_bytes);
  EXPECT_GT(dl.delivered_bytes, 0.0);
  // Honest throughput: delivered bytes over elapsed time, around 1 kbps —
  // not chunk_bytes over elapsed (which would claim ~5x more).
  EXPECT_LT(dl.throughput_mbps, 0.01);
  EXPECT_GE(dl.download_time_s, StreamingSession::kStallDeadlineS);
}

TEST(StreamingSession, CompletedDownloadNotTruncated) {
  const auto tr = constant_trace(5.0);
  const auto vid = test_video();
  StreamingSession session(tr, vid);
  const DownloadResult dl = session.download_chunk(2);
  EXPECT_FALSE(dl.truncated);
  EXPECT_DOUBLE_EQ(dl.delivered_bytes, dl.chunk_bytes);
}

TEST(EmuSession, TruncatedDownloadReportsDeliveredBytes) {
  const auto tr = constant_trace(0.001);
  const auto vid = test_video();
  util::Rng rng(5);
  EmuSession session(tr, vid, rng);
  const DownloadResult dl = session.download_chunk(5);
  EXPECT_TRUE(dl.truncated);
  EXPECT_LT(dl.delivered_bytes, dl.chunk_bytes);
  EXPECT_LT(dl.throughput_mbps, 0.01);
}

TEST(AbrEnv, TruncatedStepSurfacedAndRewardCapped) {
  const auto tr = constant_trace(0.001);
  const auto vid = test_video();
  util::Rng rng(17);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  env.reset();
  const StepResult step = env.step(5);
  EXPECT_TRUE(step.truncated);
  EXPECT_LE(step.reward, 0.0);
}

TEST(AbrEnv, NormalStepNotTruncated) {
  const auto tr = constant_trace(5.0);
  const auto vid = test_video();
  util::Rng rng(18);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  env.reset();
  EXPECT_FALSE(env.step(2).truncated);
}

// ---- AbrDomain episode frames -------------------------------------------------

// Each ABR variable's Observation field, spelled here independently of
// input_variables().
dsl::Value abr_field(const Observation& obs, const std::string& name) {
  if (name == "throughput_mbps") return obs.throughput_mbps;
  if (name == "download_time_s") return obs.download_time_s;
  if (name == "buffer_size_s_history") return obs.buffer_s_history;
  if (name == "next_chunk_sizes_bytes") return obs.next_chunk_bytes;
  if (name == "bitrate_levels_kbps") return obs.ladder_kbps;
  if (name == "buffer_size_s") return obs.buffer_s;
  if (name == "chunks_remaining") return obs.chunks_remaining;
  if (name == "total_chunks") return obs.total_chunks;
  if (name == "last_bitrate_kbps") return obs.last_bitrate_kbps;
  if (name == "chunk_length_s") return obs.chunk_len_s;
  if (name == "max_bitrate_kbps") return obs.ladder_kbps.back();
  ADD_FAILURE() << "no Observation field named " << name;
  return {};
}

void expect_frame_holds(const dsl::Bindings& frame, const Observation& obs,
                        std::size_t step) {
  ASSERT_EQ(frame.size(), input_variables().size());
  for (const auto& var : input_variables()) {
    const dsl::Value* value = frame.find(var.name);
    ASSERT_NE(value, nullptr) << var.name;
    const dsl::Value expected = abr_field(obs, var.name);
    ASSERT_EQ(value->is_vector(), var.is_vector) << var.name;
    ASSERT_EQ(expected.is_vector(), var.is_vector) << var.name;
    if (var.is_vector) {
      EXPECT_EQ(value->as_vector(), expected.as_vector())
          << var.name << " at step " << step;
    } else {
      EXPECT_EQ(value->as_scalar(), expected.as_scalar())
          << var.name << " at step " << step;
    }
  }
}

// The frame reset() returns holds, slot by slot, the observation a twin
// AbrEnv on the same trace, seed and actions returns, and step() refills
// that same frame, under both fidelities.
TEST(AbrDomain, EpisodeFrameHoldsEveryVariableByName) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.2, 1234);
  const video::Video video = test_video();
  const AbrDomain domain(dataset, video);
  for (const Fidelity fidelity :
       {Fidelity::kSimulation, Fidelity::kEmulation}) {
    util::Rng episode_rng(41);
    util::Rng twin_rng(41);
    const auto episode = domain.start_eval_episode(1, fidelity, episode_rng);
    AbrEnv twin(dataset.test.at(1), video, fidelity, twin_rng);

    const dsl::Bindings& frame = episode->reset();
    expect_frame_holds(frame, twin.reset(), 0);
    std::size_t step = 0;
    while (!episode->done()) {
      const std::size_t action = (step * 5 + 2) % domain.num_actions();
      const DomainStep result = episode->step(action);
      const StepResult expected = twin.step(action);
      ++step;
      EXPECT_EQ(result.reward, expected.reward);
      EXPECT_EQ(result.done, expected.done);
      expect_frame_holds(frame, expected.observation, step);
    }
    EXPECT_EQ(step, domain.episode_length());
    EXPECT_TRUE(twin.done());
  }
}

}  // namespace
}  // namespace nada::env
