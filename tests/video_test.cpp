// Tests for the video model: ladders, chunk sizes, and QoE_lin.
#include <gtest/gtest.h>

#include "util/rng.h"
#include "video/video.h"

namespace nada::video {
namespace {

TEST(BitrateLadder, PensieveValues) {
  const BitrateLadder& ladder = pensieve_ladder();
  ASSERT_EQ(ladder.levels(), 6u);
  EXPECT_DOUBLE_EQ(ladder.kbps(0), 300.0);
  EXPECT_DOUBLE_EQ(ladder.kbps(5), 4300.0);
  EXPECT_DOUBLE_EQ(ladder.max_kbps(), 4300.0);
}

TEST(BitrateLadder, YoutubeValues) {
  const BitrateLadder& ladder = youtube_ladder();
  ASSERT_EQ(ladder.levels(), 6u);
  EXPECT_DOUBLE_EQ(ladder.kbps(0), 1850.0);
  EXPECT_DOUBLE_EQ(ladder.kbps(5), 53000.0);
}

TEST(BitrateLadder, RejectsBadLadders) {
  EXPECT_THROW(BitrateLadder({}), std::invalid_argument);
  EXPECT_THROW(BitrateLadder({100, 100}), std::invalid_argument);
  EXPECT_THROW(BitrateLadder({200, 100}), std::invalid_argument);
  EXPECT_THROW(BitrateLadder({0, 100}), std::invalid_argument);
}

TEST(BitrateLadder, OutOfRangeLevelThrows) {
  EXPECT_THROW((void)pensieve_ladder().kbps(6), std::out_of_range);
}

TEST(Video, SizesScaleWithBitrate) {
  util::Rng rng(1);
  const Video v("v", pensieve_ladder(), 48, 4.0, rng);
  for (std::size_t c = 0; c < v.num_chunks(); ++c) {
    for (std::size_t l = 1; l < 6; ++l) {
      EXPECT_GT(v.chunk_bytes(c, l), v.chunk_bytes(c, l - 1));
    }
  }
}

TEST(Video, SizesNearNominal) {
  util::Rng rng(2);
  const Video v("v", pensieve_ladder(), 48, 4.0, rng);
  // Nominal bytes for 1200 kbps over 4 s = 600,000; VBR keeps it within
  // a generous band.
  for (std::size_t c = 0; c < v.num_chunks(); ++c) {
    const double bytes = v.chunk_bytes(c, 2);
    EXPECT_GT(bytes, 600000.0 * 0.5);
    EXPECT_LT(bytes, 600000.0 * 2.0);
  }
}

TEST(Video, VbrFactorSharedAcrossLevels) {
  util::Rng rng(3);
  const Video v("v", pensieve_ladder(), 10, 4.0, rng);
  // Ratio between two levels is constant per chunk (same factor).
  const double ratio0 = v.chunk_bytes(0, 3) / v.chunk_bytes(0, 1);
  for (std::size_t c = 1; c < 10; ++c) {
    EXPECT_NEAR(v.chunk_bytes(c, 3) / v.chunk_bytes(c, 1), ratio0, 1e-9);
  }
}

TEST(Video, AllLevelsVectorMatchesScalars) {
  util::Rng rng(4);
  const Video v("v", youtube_ladder(), 8, 4.0, rng);
  const auto all = v.chunk_bytes_all_levels(5);
  ASSERT_EQ(all.size(), 6u);
  for (std::size_t l = 0; l < 6; ++l) {
    EXPECT_DOUBLE_EQ(all[l], v.chunk_bytes(5, l));
  }
}

TEST(Video, InvalidConstructionThrows) {
  util::Rng rng(5);
  EXPECT_THROW(Video("v", pensieve_ladder(), 0, 4.0, rng),
               std::invalid_argument);
  EXPECT_THROW(Video("v", pensieve_ladder(), 10, 0.0, rng),
               std::invalid_argument);
}

TEST(Video, ChunkIndexOutOfRangeThrows) {
  util::Rng rng(6);
  const Video v("v", pensieve_ladder(), 10, 4.0, rng);
  EXPECT_THROW((void)v.chunk_bytes(10, 0), std::out_of_range);
}

TEST(Video, DurationIsChunksTimesLength) {
  util::Rng rng(7);
  const Video v("v", pensieve_ladder(), 48, 4.0, rng);
  EXPECT_DOUBLE_EQ(v.duration_s(), 192.0);
}

TEST(Video, TestVideoDeterministicForSeed) {
  const Video a = make_test_video(pensieve_ladder(), 9);
  const Video b = make_test_video(pensieve_ladder(), 9);
  for (std::size_t c = 0; c < a.num_chunks(); ++c) {
    EXPECT_DOUBLE_EQ(a.chunk_bytes(c, 3), b.chunk_bytes(c, 3));
  }
}

// ---- QoE --------------------------------------------------------------------

TEST(QoELin, RebufferPenaltyEqualsTopBitrate) {
  const QoELin qoe(pensieve_ladder());
  EXPECT_DOUBLE_EQ(qoe.rebuffer_penalty_per_s(), 4.3);
  const QoELin qoe_hi(youtube_ladder());
  EXPECT_DOUBLE_EQ(qoe_hi.rebuffer_penalty_per_s(), 53.0);
}

TEST(QoELin, SteadyStateRewardIsBitrate) {
  const QoELin qoe(pensieve_ladder());
  // Same level, no stall: reward = bitrate in Mbps.
  EXPECT_DOUBLE_EQ(qoe.chunk_reward(2, 2, 0.0), 1.2);
  EXPECT_DOUBLE_EQ(qoe.chunk_reward(5, 5, 0.0), 4.3);
}

TEST(QoELin, SmoothnessPenaltyIsSymmetric) {
  const QoELin qoe(pensieve_ladder());
  const double up = qoe.chunk_reward(3, 1, 0.0);
  const double down = qoe.chunk_reward(1, 3, 0.0);
  // up: 1.85 - |1.85-0.75| = 0.75 ; down: 0.75 - 1.1 = -0.35
  EXPECT_NEAR(up, 0.75, 1e-12);
  EXPECT_NEAR(down, -0.35, 1e-12);
}

TEST(QoELin, RebufferDominates) {
  const QoELin qoe(pensieve_ladder());
  // One second of stall at max quality wipes out the bitrate term.
  EXPECT_NEAR(qoe.chunk_reward(5, 5, 1.0), 0.0, 1e-12);
  EXPECT_LT(qoe.chunk_reward(0, 0, 2.0), -8.0);
}

TEST(QoELin, NegativeRebufferThrows) {
  const QoELin qoe(pensieve_ladder());
  EXPECT_THROW((void)qoe.chunk_reward(0, 0, -0.1), std::invalid_argument);
}

}  // namespace
}  // namespace nada::video
