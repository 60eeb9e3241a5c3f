// Tests for the streaming environment: simulator mechanics, emulation
// fidelity differences, and the RL observation frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "abr/policies.h"
#include "env/abr_domain.h"
#include "env/abr_env.h"
#include "env/session.h"
#include "frame_golden.h"
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
  const double expected = StreamingSession::kLinkRttS +
                          bytes / StreamingSession::kPacketPayloadRatio / 1e6;
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
      EXPECT_LE(session.buffer_s(), StreamingSession::kBufferCapS + 1e-9);
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
  StreamingSession fast(tr, vid, 0.0);
  StreamingSession slow(tr, vid, 61.0);
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
  const dsl::Bindings& frame = env.reset();
  const std::vector<double>& throughput = frame[kThroughputMbps].as_vector();
  ASSERT_EQ(throughput.size(), kHistoryLen);
  for (double v : throughput) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(frame[kBufferSizeS].as_scalar(), 0.0);
  EXPECT_DOUBLE_EQ(frame[kChunksRemaining].as_scalar(), 48.0);
  EXPECT_DOUBLE_EQ(frame[kLastBitrateKbps].as_scalar(), 300.0);
  const std::vector<double>& next = frame[kNextChunkSizesBytes].as_vector();
  ASSERT_EQ(next.size(), 6u);
  EXPECT_GT(next[0], 0.0);
}

TEST(AbrEnv, HistoriesShiftAfterSteps) {
  const auto tr = constant_trace(5.0);
  const auto vid = test_video();
  util::Rng rng(10);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  const dsl::Bindings& frame = env.reset();
  (void)env.step(2);
  const std::vector<double> first = frame[kThroughputMbps].as_vector();
  EXPECT_GT(first.back(), 0.0);
  EXPECT_DOUBLE_EQ(frame[kLastBitrateKbps].as_scalar(), 1200.0);
  (void)env.step(3);
  // Oldest-first: the previous sample moved one slot left.
  EXPECT_DOUBLE_EQ(frame[kThroughputMbps].as_vector()[kHistoryLen - 2],
                   first[kHistoryLen - 1]);
  EXPECT_DOUBLE_EQ(frame[kChunksRemaining].as_scalar(), 46.0);
}

TEST(AbrEnv, EpisodeEndsAfterAllChunks) {
  const auto tr = constant_trace(5.0);
  const auto vid = test_video();
  util::Rng rng(11);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  (void)env.reset();
  std::size_t steps = 0;
  while (!env.done()) {
    const auto r = env.step(0);
    ++steps;
    if (steps == vid.num_chunks()) EXPECT_TRUE(r.done);
  }
  EXPECT_EQ(steps, vid.num_chunks());
  EXPECT_THROW((void)env.step(0), std::logic_error);
}

TEST(AbrEnv, RewardMatchesQoEDefinition) {
  const auto tr = constant_trace(50.0);  // fast link: no rebuffering after
  const auto vid = test_video();
  util::Rng rng(12);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  (void)env.reset();
  (void)env.step(2);
  // Steady selection at level 2 with no stall: reward == 1.2 Mbps.
  const auto r = env.step(2);
  EXPECT_NEAR(r.reward, 1.2, 0.05);
}

TEST(AbrEnv, BufferHistoryTracksBuffer) {
  const auto tr = constant_trace(20.0);
  const auto vid = test_video();
  util::Rng rng(13);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  const dsl::Bindings& frame = env.reset();
  (void)env.step(0);
  EXPECT_DOUBLE_EQ(frame[kBufferSizeSHistory].as_vector().back(),
                   frame[kBufferSizeS].as_scalar());
}

TEST(AbrEnv, EmulationFidelityProducesLowerScores) {
  // Same trace, same policy: emulation's overheads reduce attainable QoE.
  const auto tr = constant_trace(4.0);
  const auto vid = test_video();
  util::Rng rng(14);

  auto total_reward = [&](Fidelity f) {
    util::Rng local(99);
    AbrEnv env(tr, vid, f, local);
    (void)env.reset();
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
  const dsl::Bindings& frame = env.reset();
  (void)env.step(0);
  (void)env.step(0);
  EXPECT_EQ(&env.reset(), &frame);
  EXPECT_DOUBLE_EQ(frame[kChunksRemaining].as_scalar(), 48.0);
  EXPECT_DOUBLE_EQ(frame[kBufferSizeS].as_scalar(), 0.0);
  for (double v : frame[kThroughputMbps].as_vector()) EXPECT_DOUBLE_EQ(v, 0.0);
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
  EXPECT_THROW((void)env.step(0), std::logic_error);
  EXPECT_THROW((void)env.done(), std::logic_error);
  EXPECT_NO_THROW((void)env.reset());
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
    const dsl::Bindings& a = fresh.reset();
    const dsl::Bindings& b = reused.reset();
    while (!fresh.done()) {
      EXPECT_EQ(fresh.step(2).reward, reused.step(2).reward);
      EXPECT_EQ(a[kThroughputMbps].as_vector(),
                b[kThroughputMbps].as_vector());
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
  (void)env.reset();
  const DomainStep step = env.step(5);
  EXPECT_TRUE(env.last_download().truncated);
  EXPECT_LE(step.reward, 0.0);
}

TEST(AbrEnv, NormalStepNotTruncated) {
  const auto tr = constant_trace(5.0);
  const auto vid = test_video();
  util::Rng rng(18);
  AbrEnv env(tr, vid, Fidelity::kSimulation, rng);
  (void)env.reset();
  (void)env.step(2);
  EXPECT_FALSE(env.last_download().truncated);
}

// ---- AbrDomain episode frames -------------------------------------------------

TEST(AbrDomain, SlotEnumNamesEveryVariableInOrder) {
  const std::pair<const char*, AbrSlot> slots[] = {
      {"throughput_mbps", kThroughputMbps},
      {"download_time_s", kDownloadTimeS},
      {"buffer_size_s_history", kBufferSizeSHistory},
      {"next_chunk_sizes_bytes", kNextChunkSizesBytes},
      {"bitrate_levels_kbps", kBitrateLevelsKbps},
      {"buffer_size_s", kBufferSizeS},
      {"chunks_remaining", kChunksRemaining},
      {"total_chunks", kTotalChunks},
      {"last_bitrate_kbps", kLastBitrateKbps},
      {"chunk_length_s", kChunkLengthS},
      {"max_bitrate_kbps", kMaxBitrateKbps},
  };
  ASSERT_EQ(std::size(slots), input_variables().size());
  for (const auto& [name, slot] : slots) {
    EXPECT_EQ(input_variables().slot(name), std::optional<std::size_t>(slot))
        << name;
  }
}

// Every ABR variable, computed here from a twin session on the same trace,
// offset and levels, and from the video — independently of AbrEnv and of
// input_variables()' order.
class AbrReference {
 public:
  AbrReference(const trace::Trace& trace, const video::Video& video,
               Fidelity fidelity, util::Rng& rng)
      : video_(&video) {
    const double offset =
        rng.uniform(0.0, std::max(trace.duration_s() - 1.0, 0.0));
    if (fidelity == Fidelity::kSimulation) {
      session_ = std::make_unique<StreamingSession>(trace, video, offset);
    } else {
      session_ = std::make_unique<EmuSession>(trace, video, rng, offset);
    }
  }

  DownloadResult download(std::size_t level) {
    const DownloadResult dl = session_->download_chunk(level);
    push(throughput_, dl.throughput_mbps);
    push(download_time_, dl.download_time_s);
    push(buffer_history_, dl.buffer_s);
    last_level_ = level;
    return dl;
  }

  [[nodiscard]] dsl::Value value(const std::string& name) const {
    const video::BitrateLadder& ladder = video_->ladder();
    if (name == "throughput_mbps") return throughput_;
    if (name == "download_time_s") return download_time_;
    if (name == "buffer_size_s_history") return buffer_history_;
    if (name == "next_chunk_sizes_bytes") {
      return session_->finished() ? std::vector<double>(ladder.levels(), 0.0)
                                  : video_->chunk_bytes_all_levels(
                                        session_->next_chunk_index());
    }
    if (name == "bitrate_levels_kbps") {
      return std::vector<double>(ladder.all_kbps().begin(),
                                 ladder.all_kbps().end());
    }
    if (name == "buffer_size_s") return session_->buffer_s();
    if (name == "chunks_remaining") {
      return static_cast<double>(session_->chunks_remaining());
    }
    if (name == "total_chunks") {
      return static_cast<double>(video_->num_chunks());
    }
    if (name == "last_bitrate_kbps") return ladder.kbps(last_level_);
    if (name == "chunk_length_s") return video_->chunk_len_s();
    if (name == "max_bitrate_kbps") return ladder.max_kbps();
    ADD_FAILURE() << "no reference for " << name;
    return {};
  }

  [[nodiscard]] bool finished() const { return session_->finished(); }

 private:
  static void push(std::vector<double>& history, double sample) {
    history.erase(history.begin());
    history.push_back(sample);
  }

  const video::Video* video_;
  std::unique_ptr<StreamingSession> session_;
  std::vector<double> throughput_ = std::vector<double>(kHistoryLen, 0.0);
  std::vector<double> download_time_ = std::vector<double>(kHistoryLen, 0.0);
  std::vector<double> buffer_history_ = std::vector<double>(kHistoryLen, 0.0);
  std::size_t last_level_ = 0;
};

void expect_frame_holds(const dsl::Bindings& frame,
                        const AbrReference& reference, std::size_t step) {
  ASSERT_EQ(frame.size(), input_variables().size());
  for (const auto& var : input_variables()) {
    const dsl::Value* value = frame.find(var.name);
    ASSERT_NE(value, nullptr) << var.name;
    const dsl::Value expected = reference.value(var.name);
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

// The frame reset() returns holds, slot by slot, what a twin session on
// the same trace, offset and levels reports, and step() refills that same
// frame, under both fidelities. The domain's episode is the AbrEnv itself,
// and its last_download() is the twin's chunk.
TEST(AbrDomain, EpisodeFrameHoldsEveryVariableByName) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.2, 1234);
  const video::Video video = test_video();
  const AbrDomain domain(dataset, video);
  const video::QoELin qoe(video.ladder());
  for (const Fidelity fidelity :
       {Fidelity::kSimulation, Fidelity::kEmulation}) {
    util::Rng episode_rng(41);
    util::Rng twin_rng(41);
    const auto episode = domain.start_eval_episode(1, fidelity, episode_rng);
    const auto& env = dynamic_cast<const AbrEnv&>(*episode);

    const dsl::Bindings& frame = episode->reset();
    AbrReference twin(dataset.test.at(1), video, fidelity, twin_rng);
    expect_frame_holds(frame, twin, 0);
    std::size_t step = 0;
    std::size_t last_level = 0;
    while (!episode->done()) {
      const std::size_t action = (step * 5 + 2) % domain.num_actions();
      const DomainStep result = episode->step(action);
      const DownloadResult dl = twin.download(action);
      ++step;
      const double qoe_reward =
          qoe.chunk_reward(action, last_level, dl.rebuffer_s);
      EXPECT_EQ(result.reward,
                dl.truncated ? std::min(qoe_reward, 0.0) : qoe_reward);
      EXPECT_EQ(result.done, twin.finished());
      EXPECT_EQ(env.last_download().rebuffer_s, dl.rebuffer_s);
      EXPECT_EQ(env.last_download().download_time_s, dl.download_time_s);
      EXPECT_EQ(env.last_download().truncated, dl.truncated);
      expect_frame_holds(frame, twin, step);
      last_level = action;
    }
    EXPECT_EQ(step, domain.episode_length());
    EXPECT_TRUE(twin.finished());
  }
}

// The ABR frames, frozen: every slot after reset() and after every step of
// three training and three eval episodes under both fidelities, with each
// step's reward and done flag; the catalog's canned and fuzz frames; and
// the classic policies' scores under both fidelities, which reach no other
// pin. Computed before AbrEnv wrote its frame in place.
TEST(AbrDomain, FrameGoldens) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.2, 1234);
  const video::Video video = test_video();
  const AbrDomain domain(dataset, video);
  test::FrameDigest digest;
  for (const Fidelity fidelity :
       {Fidelity::kSimulation, Fidelity::kEmulation}) {
    test::fold_domain(digest, domain, fidelity, 41, 3);
    for (const auto& policy : abr::standard_baselines()) {
      digest.add_double(
          abr::evaluate_policy(*policy, dataset.test, video, fidelity, 5));
    }
  }
  test::fold_catalog(digest, abr_catalog(), 7);
  EXPECT_EQ(digest.hex(), "f7db65a43e64d2d0a79bf17b4633d9d4");
}

}  // namespace
}  // namespace nada::env
