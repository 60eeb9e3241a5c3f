// The batched probe engine's headline guarantee: given the same seeds,
// BatchProbeTrainer is BIT-IDENTICAL to a fresh rl::Trainer per candidate —
// reward curves, checkpoint scores, failure captures — so the funnel's probe
// stage, which only ever runs the batched engine, records what serial
// training would have.
#include <gtest/gtest.h>

#include <string>

#include "dsl/state_program.h"
#include "env/abr_domain.h"
#include "rl/batch_probe.h"
#include "rl/trainer.h"
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
    Trainer trainer(domain, config, job.seed);
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
  // Block size 3 forces blocks that straddle different programs and leave a
  // ragged tail.
  const BatchProbeTrainer batched(domain, BatchProbeConfig{config, 3});
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
  const BatchProbeTrainer batched(domain, BatchProbeConfig{config, 4});
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
  const BatchProbeTrainer batched(domain, BatchProbeConfig{config, 2});
  const auto batch = batched.train(jobs);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    expect_identical(serial[i], batch[i]);
  }
}

TEST(BatchProbeTrainer, FailedCandidateIsolatedFromBlock) {
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

  // Fragile candidate in the middle of one block.
  std::vector<ProbeJob> jobs = make_jobs(programs, arch, 4);
  jobs.insert(jobs.begin() + 1, ProbeJob{&fragile, &arch, 0xdeadULL});

  const auto serial = run_serial(domain, config, jobs);
  const BatchProbeTrainer batched(domain, BatchProbeConfig{config, 5});
  const auto batch = batched.train(jobs);

  ASSERT_TRUE(serial[1].failed);
  EXPECT_TRUE(batch[1].failed);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    expect_identical(serial[i], batch[i]);
  }
}

TEST(BatchProbeTrainer, PoolScheduledBlocksMatchSerial) {
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
  const BatchProbeTrainer batched(domain, BatchProbeConfig{config, 2});
  const auto batch = batched.train(jobs, &pool);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    expect_identical(serial[i], batch[i]);
  }
}

TEST(BatchProbeTrainer, RejectsDegenerateConfig) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 10);
  const env::AbrDomain domain(dataset, video);
  TrainConfig zero_epochs;
  zero_epochs.epochs = 0;
  EXPECT_THROW(
      BatchProbeTrainer(domain, BatchProbeConfig{zero_epochs, 4}),
      std::invalid_argument);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 2;
  const BatchProbeTrainer trainer(domain, BatchProbeConfig{config, 4});
  std::vector<ProbeJob> null_job{ProbeJob{nullptr, &arch, 1}};
  EXPECT_THROW((void)trainer.train(null_job), std::invalid_argument);
}

}  // namespace
}  // namespace nada::rl
