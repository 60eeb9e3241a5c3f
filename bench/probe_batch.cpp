// Probe-throughput bench: candidates/sec for the early-probe stage, serial
// Trainer-per-candidate vs the lockstep BatchProbeTrainer, at several
// cohort sizes.
//
// The funnel spends nearly all its compute here (thousands of short runs
// that only feed the early-stop ranker), so this is the number that decides
// how many candidates a machine can screen per hour. The bench also
// verifies the headline guarantee on every row: the batched reward curves
// must be bit-identical to the serial ones.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "env/abr_domain.h"
#include "gen/state_gen.h"
#include "nn/mat_kernels.h"
#include "rl/batch_probe.h"
#include "rl/trainer.h"
#include "trace/generator.h"
#include "util/thread_pool.h"
#include "video/video.h"

int main() {
  using namespace nada;
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("Batched probe training — candidates/sec vs serial", scale);

  const trace::Environment env = trace::Environment::kFcc;
  const trace::Dataset dataset = trace::build_dataset(env, scale.traces, 7);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 11);
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool;

  rl::TrainConfig probe_config;
  probe_config.epochs = scale.epoch_count(60, 12);
  probe_config.evaluate_checkpoints = false;

  // A pool of distinct state programs cycled across the cohort, as the
  // funnel's pre-check survivors would be.
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                2024);
  std::vector<dsl::StateProgram> programs;
  programs.push_back(
      dsl::StateProgram::compile(dsl::pensieve_state_source()));
  for (const auto& candidate : generator.generate_batch(64)) {
    if (programs.size() >= 8) break;
    try {
      programs.push_back(dsl::StateProgram::compile(candidate.source));
    } catch (const dsl::CompileError&) {
      continue;
    }
  }
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = 32;
  arch.scalar_hidden = 32;
  arch.merge_hidden = 32;

  // Every row is labeled with the NN kernel flavor it ran under: scalar
  // and avx2 rows are mutually comparable (bit-identical results), fma
  // rows are a different numeric universe (pinned-divergent) and must
  // never be diffed against scalar/avx2 rows — the label is what makes a
  // cross-flavor CSV comparison an explicit choice instead of an accident.
  const std::string flavor = nn::kernel_flavor_name(nn::kernel_flavor());
  std::cout << "nn kernel flavor: " << flavor << "\n";

  util::TextTable table("Early-probe throughput (higher is better)");
  table.set_header({"candidates", "kernel", "serial cand/s",
                    "batched cand/s", "speedup", "bit-identical"});

  // CI runs this bench as the bit-identity smoke check: any divergence
  // must fail the job, not just print.
  bool all_identical = true;

  for (const std::size_t cohort : {8u, 16u, 32u}) {
    std::vector<rl::ProbeJob> jobs;
    jobs.reserve(cohort);
    for (std::size_t i = 0; i < cohort; ++i) {
      jobs.push_back(rl::ProbeJob{&programs[i % programs.size()], &arch,
                                  0x9e3779b9ULL * (i + 1)});
    }

    bench::Stopwatch serial_timer;
    std::vector<rl::TrainResult> serial_results;
    serial_results.reserve(cohort);
    for (const auto& job : jobs) {
      rl::Trainer trainer(domain, probe_config, job.seed);
      serial_results.push_back(trainer.train(*job.program, *job.spec));
    }
    const double serial_s = serial_timer.seconds();

    const rl::BatchProbeTrainer batch_trainer(
        domain, rl::BatchProbeConfig{probe_config, 4});
    bench::Stopwatch batch_timer;
    const auto batch_results = batch_trainer.train(jobs, nullptr);
    const double batch_s = batch_timer.seconds();

    bool identical = batch_results.size() == serial_results.size();
    for (std::size_t i = 0; identical && i < batch_results.size(); ++i) {
      identical = batch_results[i].failed == serial_results[i].failed &&
                  batch_results[i].train_rewards ==
                      serial_results[i].train_rewards;
    }

    const double serial_rate = cohort / std::max(serial_s, 1e-9);
    const double batch_rate = cohort / std::max(batch_s, 1e-9);
    table.add_row_mixed({std::to_string(cohort), flavor},
                        {serial_rate, batch_rate, batch_rate / serial_rate,
                         identical ? 1.0 : 0.0},
                        2);
    if (!identical) {
      all_identical = false;
      std::cout << "ERROR: batched curves diverged from serial at cohort "
                << cohort << "\n";
    }
  }

  // Pool-scheduled runs: candidate-blocks vs one task per candidate.
  {
    const std::size_t cohort = 32;
    std::vector<rl::ProbeJob> jobs;
    for (std::size_t i = 0; i < cohort; ++i) {
      jobs.push_back(rl::ProbeJob{&programs[i % programs.size()], &arch,
                                  0x9e3779b9ULL * (i + 1)});
    }
    bench::Stopwatch serial_timer;
    std::vector<rl::TrainResult> serial_results(cohort);
    pool.parallel_for(cohort, [&](std::size_t i) {
      rl::Trainer trainer(domain, probe_config, jobs[i].seed);
      serial_results[i] = trainer.train(*jobs[i].program, *jobs[i].spec);
    });
    const double serial_s = serial_timer.seconds();

    const rl::BatchProbeTrainer batch_trainer(
        domain, rl::BatchProbeConfig{probe_config, 4});
    bench::Stopwatch batch_timer;
    const auto batch_results = batch_trainer.train(jobs, &pool);
    const double batch_s = batch_timer.seconds();
    std::cout << "pool-scheduled, " << cohort << " candidates on "
              << pool.size() << " threads: serial "
              << cohort / std::max(serial_s, 1e-9) << " cand/s, batched "
              << cohort / std::max(batch_s, 1e-9) << " cand/s ("
              << serial_s / std::max(batch_s, 1e-9) << "x)\n";
    for (std::size_t i = 0; i < cohort; ++i) {
      if (batch_results[i].train_rewards != serial_results[i].train_rewards) {
        all_identical = false;
        std::cout << "ERROR: pool-scheduled batched curves diverged from "
                     "serial at candidate " << i << "\n";
      }
    }
  }

  // Kernel-flavor sweep: the same cohort under each runnable flavor.
  // Cross-flavor comparisons follow the contract: avx2 must reproduce the
  // scalar curves bit-for-bit (a divergence fails the bench), while fma is
  // pinned-divergent — its rows are labeled so, never silently compared.
  {
    const nn::KernelFlavor entry_flavor = nn::kernel_flavor();
    std::vector<nn::KernelFlavor> flavors = {nn::KernelFlavor::kScalar};
    if (nn::built_with_avx2_kernels() && nn::cpu_supports_avx2()) {
      flavors.push_back(nn::KernelFlavor::kAvx2);
    }
    if (nn::built_with_fma_kernels() && nn::cpu_supports_avx2() &&
        nn::cpu_supports_fma()) {
      flavors.push_back(nn::KernelFlavor::kFma);
    }

    const std::size_t cohort = 16;
    std::vector<rl::ProbeJob> jobs;
    for (std::size_t i = 0; i < cohort; ++i) {
      jobs.push_back(rl::ProbeJob{&programs[i % programs.size()], &arch,
                                  0x9e3779b9ULL * (i + 1)});
    }
    const rl::BatchProbeTrainer batch_trainer(
        domain, rl::BatchProbeConfig{probe_config, 4});

    util::TextTable sweep("Kernel-flavor sweep (batched, cohort 16)");
    sweep.set_header({"kernel", "batched cand/s", "vs scalar"});
    std::vector<rl::TrainResult> scalar_results;
    for (const nn::KernelFlavor f : flavors) {
      nn::set_kernel_flavor(f);
      bench::Stopwatch flavor_timer;
      const auto flavor_results = batch_trainer.train(jobs, nullptr);
      const double rate = cohort / std::max(flavor_timer.seconds(), 1e-9);
      std::string comparison = "(reference)";
      if (f == nn::KernelFlavor::kScalar) {
        scalar_results = flavor_results;
      } else {
        bool identical = true;
        for (std::size_t i = 0; i < cohort; ++i) {
          identical &= flavor_results[i].train_rewards ==
                       scalar_results[i].train_rewards;
        }
        if (f == nn::KernelFlavor::kAvx2) {
          comparison = identical ? "bit-identical" : "DIVERGED";
          if (!identical) {
            all_identical = false;
            std::cout << "ERROR: avx2 curves diverged from scalar — the "
                         "bit-identity contract is broken\n";
          }
        } else {
          // fma may diverge from scalar (fused rounding) — that is the
          // documented contract. Curves CAN still match bitwise: rewards
          // are quantized by env dynamics, so low-order logit changes
          // only surface when they flip a sampled action.
          comparison = identical ? "curves match (divergence allowed)"
                                 : "divergent (pinned, kernel=fma)";
        }
      }
      sweep.add_row({nn::kernel_flavor_name(f), util::format_double(rate, 2),
                     comparison});
    }
    nn::set_kernel_flavor(entry_flavor);
    std::cout << sweep.to_string() << "\n";
  }

  std::cout << table.to_string() << "\n";
  bench::save_csv("probe_batch.csv", table);
  if (!all_identical) {
    std::cout << "FAILED: batched/serial bit-identity violated\n";
    return 1;
  }
  return 0;
}
