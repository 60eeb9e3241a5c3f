// Property-style tests: invariants that must hold across randomized inputs
// and whole families of configurations, exercised with parameterized
// sweeps. These catch interaction bugs the example-based unit tests miss.
#include <gtest/gtest.h>

#include <cmath>

#include "dsl/state_program.h"
#include "env/abr_domain.h"
#include "env/abr_env.h"
#include "filter/checks.h"
#include "gen/state_gen.h"
#include "nn/arch.h"
#include "trace/generator.h"
#include "video/video.h"

namespace nada {
namespace {

// ---- DSL / generator properties ---------------------------------------------

// Property: for any generated candidate, the compilation check never
// throws — all lexer/parser/runtime failures are captured as a result.
TEST(Property, CompilationCheckIsTotal) {
  gen::StateGenerator generator(gen::gpt35_profile(), gen::PromptStrategy{},
                                12345);
  for (int i = 0; i < 2000; ++i) {
    const auto cand = generator.generate();
    EXPECT_NO_THROW({ (void)filter::compilation_check(cand.source, env::abr_catalog()); });
  }
}

// Property: a compiled program is a pure function of its observation —
// same observation, same state matrix.
TEST(Property, CompiledProgramsAreDeterministic) {
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                777);
  util::Rng rng(9);
  std::size_t checked = 0;
  for (int i = 0; i < 400 && checked < 60; ++i) {
    const auto cand = generator.generate();
    std::optional<dsl::StateProgram> program;
    if (!filter::compilation_check(cand.source, env::abr_catalog(), &program).passed) continue;
    const dsl::Bindings obs = env::abr_catalog().fuzz(rng);
    try {
      const auto a = program->run(obs);
      const auto b = program->run(obs);
      ASSERT_EQ(a.rows.size(), b.rows.size());
      for (std::size_t r = 0; r < a.rows.size(); ++r) {
        EXPECT_EQ(a.rows[r].values, b.rows[r].values);
      }
      ++checked;
    } catch (const dsl::RuntimeError&) {
      // Fuzz inputs may legitimately trigger runtime errors; the property
      // only concerns successful evaluations.
    }
  }
  EXPECT_GE(checked, 40u);
}

// Property: the normalization check is monotone in the threshold — a
// program passing at T also passes at any T' > T.
TEST(Property, NormalizationCheckMonotoneInThreshold) {
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                31);
  const double thresholds[] = {10.0, 50.0, 100.0, 1000.0};
  std::size_t checked = 0;
  for (int i = 0; i < 300 && checked < 50; ++i) {
    const auto cand = generator.generate();
    std::optional<dsl::StateProgram> program;
    if (!filter::compilation_check(cand.source, env::abr_catalog(), &program).passed) continue;
    ++checked;
    bool passed_before = false;
    for (const double t : thresholds) {
      const bool passes = filter::normalization_check(*program, env::abr_catalog(), t).passed;
      if (passed_before) {
        EXPECT_TRUE(passes) << cand.source << " failed at T=" << t
                            << " after passing a smaller threshold";
      }
      passed_before = passed_before || passes;
    }
  }
  EXPECT_GE(checked, 30u);
}

// Property: every emitted row of a normalized program stays bounded by the
// threshold across many fuzz draws (the check generalizes past its own 16
// draws).
TEST(Property, NormalizedProgramsStayBounded) {
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                55);
  util::Rng rng(100);
  std::size_t checked = 0;
  for (int i = 0; i < 400 && checked < 30; ++i) {
    const auto cand = generator.generate();
    std::optional<dsl::StateProgram> program;
    if (!filter::compilation_check(cand.source, env::abr_catalog(), &program).passed) continue;
    if (!filter::normalization_check(*program, env::abr_catalog()).passed) continue;
    ++checked;
    for (int run = 0; run < 50; ++run) {
      try {
        const auto matrix = program->run(env::abr_catalog().fuzz(rng));
        // Allow a small multiple: the 16-draw check is statistical.
        EXPECT_LT(matrix.max_abs(), 100.0 * 4)
            << cand.source;
      } catch (const dsl::RuntimeError&) {
        // Rare fragile paths are acceptable here.
        break;
      }
    }
  }
  EXPECT_GE(checked, 20u);
}

// ---- environment properties -----------------------------------------------------

class EnvironmentProperty
    : public ::testing::TestWithParam<trace::Environment> {};

// Property: chunk downloads conserve sanity — time advances, buffer stays
// within [0, cap + chunk], rebuffer only when the buffer ran dry.
TEST_P(EnvironmentProperty, SessionInvariantsHold) {
  util::Rng rng(17);
  const auto tr = trace::generate_trace(GetParam(), 300.0, rng);
  const bool high_bw = GetParam() == trace::Environment::k4G ||
                       GetParam() == trace::Environment::k5G;
  const auto video = video::make_test_video(
      high_bw ? video::youtube_ladder() : video::pensieve_ladder(), 9);
  env::StreamingSession session(tr, video);
  double last_clock = session.clock_s();
  while (!session.finished()) {
    const auto lvl = static_cast<std::size_t>(rng.uniform_int(0, 5));
    const auto result = session.download_chunk(lvl);
    EXPECT_GT(session.clock_s(), last_clock);
    last_clock = session.clock_s();
    EXPECT_GE(result.buffer_s, 0.0);
    EXPECT_LE(result.buffer_s, 60.0 + video.chunk_len_s() + 1e-9);
    EXPECT_GE(result.download_time_s, 0.0);
    EXPECT_GE(result.rebuffer_s, 0.0);
    EXPECT_LE(result.rebuffer_s, result.download_time_s + 1e-9);
    EXPECT_GT(result.throughput_mbps, 0.0);
  }
}

// Property: the frame's histories always have the documented shapes and
// non-negative values, at every step of every environment.
TEST_P(EnvironmentProperty, ObservationShapesStable) {
  util::Rng rng(23);
  const auto tr = trace::generate_trace(GetParam(), 200.0, rng);
  const auto video = video::make_test_video(video::pensieve_ladder(), 10);
  env::AbrEnv abr(tr, video, env::Fidelity::kSimulation, rng);
  const dsl::Bindings& frame = abr.reset();
  while (!abr.done()) {
    const std::vector<double>& throughput =
        frame[env::kThroughputMbps].as_vector();
    const std::vector<double>& download =
        frame[env::kDownloadTimeS].as_vector();
    ASSERT_EQ(throughput.size(), env::kHistoryLen);
    ASSERT_EQ(download.size(), env::kHistoryLen);
    ASSERT_EQ(frame[env::kBufferSizeSHistory].as_vector().size(),
              env::kHistoryLen);
    ASSERT_EQ(frame[env::kNextChunkSizesBytes].as_vector().size(), 6u);
    for (double v : throughput) EXPECT_GE(v, 0.0);
    for (double v : download) EXPECT_GE(v, 0.0);
    EXPECT_GE(frame[env::kBufferSizeS].as_scalar(), 0.0);
    EXPECT_GE(frame[env::kChunksRemaining].as_scalar(), 0.0);
    const auto step =
        abr.step(static_cast<std::size_t>(rng.uniform_int(0, 5)));
    EXPECT_TRUE(std::isfinite(step.reward));
  }
}

// Property: emulation fidelity never downloads faster than the simulator's
// idealized transfer for the same chunk sequence (overheads only add).
TEST_P(EnvironmentProperty, EmulationNeverFasterOnAverage) {
  util::Rng rng(29);
  const auto tr = trace::generate_trace(GetParam(), 250.0, rng);
  const auto video = video::make_test_video(video::pensieve_ladder(), 11);
  util::Rng rng_sim(5);
  util::Rng rng_emu(5);
  env::StreamingSession sim(tr, video);
  env::EmuSession emu(tr, video, rng_emu);
  double sim_total = 0.0;
  double emu_total = 0.0;
  for (int i = 0; i < 20; ++i) {
    sim_total += sim.download_chunk(2).download_time_s;
    emu_total += emu.download_chunk(2).download_time_s;
  }
  EXPECT_GT(emu_total, sim_total * 0.95);
}

INSTANTIATE_TEST_SUITE_P(AllEnvironments, EnvironmentProperty,
                         ::testing::ValuesIn(trace::all_environments()),
                         [](const auto& info) {
                           return std::string(
                               trace::environment_name(info.param));
                         });

// ---- trace properties -------------------------------------------------------------

class TraceRoundtrip : public ::testing::TestWithParam<trace::Environment> {};

TEST_P(TraceRoundtrip, CookedFormatPreservesTrace) {
  util::Rng rng(41);
  const auto tr = trace::generate_trace(GetParam(), 120.0, rng);
  const auto back = trace::from_cooked_format("rt", to_cooked_format(tr));
  ASSERT_EQ(back.size(), tr.size());
  EXPECT_NEAR(back.mean_kbps(), tr.mean_kbps(), tr.mean_kbps() * 1e-4);
}

TEST_P(TraceRoundtrip, MahimahiFormatPreservesMeanRate) {
  util::Rng rng(43);
  const auto tr = trace::generate_trace(GetParam(), 120.0, rng);
  const auto back =
      trace::from_mahimahi_format("rt", to_mahimahi_format(tr));
  // Packetization quantizes at 1500 B granularity; 5% tolerance.
  EXPECT_NEAR(back.mean_kbps(), tr.mean_kbps(), tr.mean_kbps() * 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllEnvironments, TraceRoundtrip,
                         ::testing::ValuesIn(trace::all_environments()),
                         [](const auto& info) {
                           return std::string(
                               trace::environment_name(info.param));
                         });

// ---- network properties ------------------------------------------------------------

class WidthSweep : public ::testing::TestWithParam<std::size_t> {};

// Property: the inference and capture forwards agree and produce valid
// distributions at every width.
TEST_P(WidthSweep, ForwardDeterministicAndNormalized) {
  nn::ArchSpec spec = nn::ArchSpec::pensieve();
  spec.conv_filters = spec.scalar_hidden = spec.merge_hidden = GetParam();
  util::Rng rng(51);
  nn::StateSignature sig;
  sig.row_lengths = {1, 1, 8, 8, 6, 1};
  nn::ActorCriticNet net(spec, sig, 6, rng);
  const std::vector<nn::Vec> rows = {
      {0.3}, {0.9}, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
      {0.2, 0.2, 0.3, 0.1, 0.4, 0.2, 0.3, 0.2},
      {0.1, 0.2, 0.4, 0.7, 1.1, 1.7}, {0.5}};
  const auto a = net.forward_inference(rows);
  net.begin_batch_capture(1);
  const auto b = net.forward_capture(rows, 0);
  EXPECT_EQ(a.probs, b.probs);
  EXPECT_EQ(a.value, b.value);
  double total = 0.0;
  for (double p : a.probs) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// Property: recurrent temporal units are order-sensitive — reversing the
// input sequence changes the output (they actually use temporal structure).
TEST_P(WidthSweep, RecurrentUnitsAreOrderSensitive) {
  util::Rng rng(53);
  nn::SimpleRnn rnn(8, GetParam(), rng);
  nn::Lstm lstm(8, GetParam(), rng);
  const nn::Vec forward_seq = {0.1, 0.4, 0.2, 0.8, 0.3, 0.9, 0.5, 0.7};
  nn::Vec reversed = forward_seq;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_NE(rnn.infer(forward_seq), rnn.infer(reversed));
  EXPECT_NE(lstm.infer(forward_seq), lstm.infer(reversed));
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(8, 16, 32, 64),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

// ---- generator batch properties ------------------------------------------------------

TEST(Property, CandidateIdsUniqueAcrossLargeBatch) {
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                61);
  std::set<std::string> ids;
  const auto batch = generator.generate_batch(1000);
  for (const auto& cand : batch) ids.insert(cand.id);
  EXPECT_EQ(ids.size(), batch.size());
}

TEST(Property, FlawRatesStableAcrossSeeds) {
  // The calibrated rates are seed-independent in expectation: two large
  // batches from different seeds land within a few points of each other.
  auto compile_rate = [](std::uint64_t seed) {
    gen::StateGenerator generator(gen::gpt35_profile(),
                                  gen::PromptStrategy{}, seed);
    std::size_t ok = 0;
    const auto batch = generator.generate_batch(1500);
    for (const auto& cand : batch) {
      if (filter::compilation_check(cand.source, env::abr_catalog()).passed) ++ok;
    }
    return static_cast<double>(ok) / 1500.0;
  };
  EXPECT_NEAR(compile_rate(1), compile_rate(999), 0.06);
}

}  // namespace
}  // namespace nada
