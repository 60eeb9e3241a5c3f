// The training engine's headline guarantee: given the same seeds,
// BatchProbeTrainer is BIT-IDENTICAL to a fresh serial oracle trainer
// (tests/rl_trainer_oracle.h) per candidate — reward curves, checkpoint
// and emulation scores, failure captures — so every training the library
// runs (probes, the baseline, full training) records what the
// straightforward serial loop would have.
#include <gtest/gtest.h>

#include <string>

#include "dsl/state_program.h"
#include "env/abr_domain.h"
#include "rl/batch_probe.h"
#include "rl/session.h"
#include "rl/trainer.h"
#include "rl_trainer_oracle.h"
#include "trace/generator.h"
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

trace::Dataset tiny_dataset(std::uint64_t seed = 11) {
  return trace::build_dataset(trace::Environment::kFcc, 0.03, seed);
}

std::vector<dsl::StateProgram> candidate_programs() {
  std::vector<dsl::StateProgram> programs;
  programs.push_back(
      dsl::StateProgram::compile(dsl::pensieve_state_source()));
  programs.push_back(dsl::StateProgram::compile(
      "emit \"buf\" = buffer_size_s / 10.0;\n"
      "emit \"tput\" = throughput_mbps / 8.0;\n"));
  programs.push_back(dsl::StateProgram::compile(
      "emit \"tput\" = throughput_mbps / 8.0;\n"
      "emit \"dl\" = download_time_s / 10.0;\n"
      "emit \"left\" = chunks_remaining / total_chunks;\n"));
  return programs;
}

std::vector<ProbeJob> make_jobs(const std::vector<dsl::StateProgram>& programs,
                                const nn::ArchSpec& arch, std::size_t count) {
  std::vector<ProbeJob> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(ProbeJob{&programs[i % programs.size()], &arch,
                            0xb10bULL * 131 + i * 0x9e3779b9ULL});
  }
  return jobs;
}

std::vector<TrainResult> run_serial(const env::TaskDomain& domain,
                                    const TrainConfig& config,
                                    const std::vector<ProbeJob>& jobs) {
  std::vector<TrainResult> results;
  results.reserve(jobs.size());
  for (const auto& job : jobs) {
    test::Trainer trainer(domain, config, job.seed);
    results.push_back(trainer.train(*job.program, *job.spec));
  }
  return results;
}

void expect_identical(const TrainResult& serial, const TrainResult& batched) {
  EXPECT_EQ(serial.failed, batched.failed);
  EXPECT_EQ(serial.error, batched.error);
  // operator== on vector<double> is exact: any bit drift fails.
  EXPECT_EQ(serial.train_rewards, batched.train_rewards);
  EXPECT_EQ(serial.test_epochs, batched.test_epochs);
  EXPECT_EQ(serial.test_scores, batched.test_scores);
  EXPECT_EQ(serial.final_score, batched.final_score);
  EXPECT_EQ(serial.emulation_score, batched.emulation_score);
}

TEST(BatchProbeTrainer, BitIdenticalToSerialTrainer) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 5);
  const env::AbrDomain domain(dataset, video);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 12;
  config.evaluate_checkpoints = false;  // the pipeline's probe setting
  const auto jobs = make_jobs(programs, arch, 7);

  const auto serial = run_serial(domain, config, jobs);
  const BatchProbeTrainer batched(domain, BatchProbeConfig{config});
  const auto batch = batched.train(jobs);

  ASSERT_EQ(batch.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    ASSERT_FALSE(serial[i].failed) << serial[i].error;
    expect_identical(serial[i], batch[i]);
  }
}

TEST(BatchProbeTrainer, BitIdenticalWithCheckpointEvaluation) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 6);
  const env::AbrDomain domain(dataset, video);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 10;
  config.test_interval = 5;
  config.max_eval_traces = 2;  // exercises the strided eval subset too
  const auto jobs = make_jobs(programs, arch, 4);

  const auto serial = run_serial(domain, config, jobs);
  const BatchProbeTrainer batched(domain, BatchProbeConfig{config});
  const auto batch = batched.train(jobs);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    ASSERT_EQ(serial[i].test_scores.size(), 2u);
    expect_identical(serial[i], batch[i]);
  }
}

TEST(BatchProbeTrainer, BitIdenticalUnderEmulationFidelity) {
  // Emulation sessions draw jitter from the candidate's RNG inside every
  // step, so this pins the interleaving of action draws and session draws.
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 7);
  const env::AbrDomain domain(dataset, video);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 6;
  config.fidelity = env::Fidelity::kEmulation;
  config.evaluate_checkpoints = false;
  const auto jobs = make_jobs(programs, arch, 5);

  const auto serial = run_serial(domain, config, jobs);
  const BatchProbeTrainer batched(domain, BatchProbeConfig{config});
  const auto batch = batched.train(jobs);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    expect_identical(serial[i], batch[i]);
  }
}

TEST(BatchProbeTrainer, FailedCandidateIsolatedFromItsNeighbours) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 8);
  const env::AbrDomain domain(dataset, video);
  const auto programs = candidate_programs();
  const auto fragile = dsl::StateProgram::compile(
      "emit \"x\" = log(vmin(throughput_mbps));\n");
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 8;
  config.evaluate_checkpoints = false;

  // Fragile candidate between healthy ones, trained concurrently with
  // them on the pool.
  std::vector<ProbeJob> jobs = make_jobs(programs, arch, 4);
  jobs.insert(jobs.begin() + 1, ProbeJob{&fragile, &arch, 0xdeadULL});

  const auto serial = run_serial(domain, config, jobs);
  util::ThreadPool pool(3);
  const BatchProbeTrainer batched(domain, BatchProbeConfig{config});
  const auto batch = batched.train(jobs, &pool);

  ASSERT_TRUE(serial[1].failed);
  EXPECT_TRUE(batch[1].failed);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    expect_identical(serial[i], batch[i]);
  }
}

TEST(BatchProbeTrainer, PoolScheduledCandidatesMatchSerial) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 9);
  const env::AbrDomain domain(dataset, video);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 8;
  config.evaluate_checkpoints = false;
  const auto jobs = make_jobs(programs, arch, 9);

  const auto serial = run_serial(domain, config, jobs);
  util::ThreadPool pool(3);
  const BatchProbeTrainer batched(domain, BatchProbeConfig{config});
  const auto batch = batched.train(jobs, &pool);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    expect_identical(serial[i], batch[i]);
  }
}

TEST(BatchProbeTrainer, SessionsMatchOraclePerSeedOnTable4Path) {
  // Table 4's path: full training with checkpoint evaluation and a final
  // emulation evaluation, several seeds per design, through the merged
  // run_sessions on a pool — against one oracle per (design, seed) with
  // the documented seed derivation, aggregated by aggregate_sessions.
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 12);
  const env::AbrDomain domain(dataset, video);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  SessionConfig config;
  config.seeds = 3;
  config.train.epochs = 8;
  config.train.test_interval = 4;
  config.train.max_eval_traces = 2;
  config.train.evaluate_checkpoints = true;
  config.train.emulation_final_eval = true;
  const std::vector<SessionJob> jobs{{&programs[0], &arch, 0x7ab1e4ULL},
                                     {&programs[2], &arch, 0x7ab1e5ULL}};

  util::ThreadPool pool(3);
  const auto merged = run_sessions(domain, jobs, config, &pool);
  ASSERT_EQ(merged.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SCOPED_TRACE("design " + std::to_string(j));
    std::vector<TrainResult> per_seed;
    for (std::size_t s = 0; s < config.seeds; ++s) {
      test::Trainer oracle(domain, config.train,
                           jobs[j].base_seed + 0x9e3779b9ULL * (s + 1));
      per_seed.push_back(oracle.train(*jobs[j].program, *jobs[j].spec));
    }
    const SessionResult expected =
        aggregate_sessions(per_seed, /*emulation_eval=*/true);
    const SessionResult& got = merged[j];
    ASSERT_FALSE(expected.failed);
    EXPECT_EQ(got.failed, expected.failed);
    EXPECT_EQ(got.test_score, expected.test_score);
    EXPECT_EQ(got.emulation_score, expected.emulation_score);
    EXPECT_NE(got.emulation_score, 0.0);
    EXPECT_EQ(got.median_curve, expected.median_curve);
    EXPECT_EQ(got.curve_epochs, expected.curve_epochs);
    ASSERT_EQ(got.sessions.size(), config.seeds);
    for (std::size_t s = 0; s < config.seeds; ++s) {
      SCOPED_TRACE("seed " + std::to_string(s));
      ASSERT_EQ(per_seed[s].test_scores.size(), 2u);
      expect_identical(per_seed[s], got.sessions[s]);
    }
  }
}

TEST(BatchProbeTrainer, RejectsDegenerateConfig) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 10);
  const env::AbrDomain domain(dataset, video);
  TrainConfig zero_epochs;
  zero_epochs.epochs = 0;
  EXPECT_THROW(BatchProbeTrainer(domain, BatchProbeConfig{zero_epochs}),
               std::invalid_argument);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 2;
  const BatchProbeTrainer trainer(domain, BatchProbeConfig{config});
  std::vector<ProbeJob> null_job{ProbeJob{nullptr, &arch, 1}};
  EXPECT_THROW((void)trainer.train(null_job), std::invalid_argument);
}

}  // namespace
}  // namespace nada::rl
