// Training-engine throughput bench: candidates/sec of the library's one
// training engine (rl::BatchProbeTrainer) against the serial test oracle
// (tests/rl_trainer_oracle.h), one per job, on the funnel's two training
// shapes:
//   * early probes (no checkpoint evaluation) at several cohort sizes on
//     one thread, and the largest cohort on the pool, one task per job;
//   * full training: 4 designs x 2 seeds with checkpoint evaluation,
//     oracle per (design, seed) on the pool vs rl::run_sessions.
//
// Probes are where the funnel spends nearly all its compute (thousands of
// short runs that only feed the early-stop ranker), so this is the number
// that decides how many candidates a machine can screen per hour. The
// bench also verifies the engine's headline guarantee on every row: its
// reward curves and test scores must be bit-identical to the oracle's.
//
// A last section splits one-thread probe time by phase
// (rl.probe.phase.*.seconds) for an ABR pensieve cohort and a CC cohort of
// conv, LSTM and RNN designs, and fails unless the phases cover at least
// 90% of rl.probe_block.seconds.
#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cc/cc_domain.h"
#include "env/abr_domain.h"
#include "filter/checks.h"
#include "gen/state_gen.h"
#include "nn/mat_kernels.h"
#include "obs/metrics.h"
#include "rl/batch_probe.h"
#include "rl/session.h"
#include "rl/trainer.h"
#include "tests/rl_trainer_oracle.h"
#include "trace/generator.h"
#include "util/thread_pool.h"
#include "video/video.h"

using namespace nada;

namespace {

constexpr std::array<const char*, 7> kPhases = {
    "dsl", "forward", "sample", "env", "backward", "optimizer", "sync"};
constexpr double kMinPhaseCover = 0.9;

/// Trains `jobs` on one thread with the phase counters on, adds each
/// phase's share of rl.probe_block.seconds to `table`, and returns the
/// share all phases cover together.
double add_phase_split(util::TextTable& table, const std::string& cohort,
                       const env::TaskDomain& domain,
                       const rl::TrainConfig& config,
                       std::span<const rl::ProbeJob> jobs) {
  obs::MetricsRegistry metrics;
  const rl::BatchProbeTrainer engine(
      domain, rl::BatchProbeConfig{.train = config, .metrics = &metrics});
  (void)engine.train(jobs, nullptr);
  const double total = metrics.histogram("rl.probe_block.seconds").sum();
  double covered = 0.0;
  for (const char* phase : kPhases) {
    const double seconds =
        metrics.histogram(std::string("rl.probe.phase.") + phase + ".seconds")
            .sum();
    covered += seconds;
    table.add_row_mixed({cohort, phase},
                        {seconds * 1e3 / static_cast<double>(jobs.size()),
                         seconds / std::max(total, 1e-12)},
                        3);
  }
  table.add_row_mixed({cohort, "task (rl.probe_block)"},
                      {total * 1e3 / static_cast<double>(jobs.size()),
                       covered / std::max(total, 1e-12)},
                      3);
  return covered / std::max(total, 1e-12);
}

}  // namespace

int main() {
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("Training engine — candidates/sec vs the serial oracle",
                scale);

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
  const auto probe_jobs = [&](std::size_t cohort) {
    std::vector<rl::ProbeJob> jobs;
    for (std::size_t i = 0; i < cohort; ++i) {
      jobs.push_back(rl::ProbeJob{&programs[i % programs.size()], &arch,
                                  0x9e3779b9ULL * (i + 1)});
    }
    return jobs;
  };
  const auto oracle_train = [&](const rl::TrainConfig& config,
                                const rl::ProbeJob& job) {
    test::Trainer oracle(domain, config, job.seed);
    return oracle.train(*job.program, *job.spec);
  };

  // Every row is labeled with the NN kernel flavor it ran under: scalar
  // and avx2 compute the same bits at different speeds, so a throughput
  // comparison across CSVs is only meaningful within one flavor.
  const std::string flavor = nn::kernel_flavor_name(nn::kernel_flavor());
  std::cout << "nn kernel flavor: " << flavor << "\n";

  util::TextTable table("Training throughput (higher is better)");
  table.set_header({"workload", "jobs", "threads", "kernel", "oracle cand/s",
                    "engine cand/s", "speedup", "bit-identical"});
  const auto add_row = [&](const std::string& workload, std::size_t jobs,
                           std::size_t threads, double oracle_s,
                           double engine_s, bool identical) {
    const double oracle_rate = jobs / std::max(oracle_s, 1e-9);
    const double engine_rate = jobs / std::max(engine_s, 1e-9);
    table.add_row_mixed(
        {workload, std::to_string(jobs), std::to_string(threads), flavor},
        {oracle_rate, engine_rate, engine_rate / oracle_rate,
         identical ? 1.0 : 0.0},
        2);
  };

  // CI runs this bench as the bit-identity smoke check: any divergence
  // must fail the job, not just print.
  bool all_identical = true;
  const rl::BatchProbeTrainer probe_engine(domain,
                                           rl::BatchProbeConfig{probe_config});

  // One thread: the engine's per-job speed.
  for (const std::size_t cohort : {8u, 16u, 32u}) {
    const auto jobs = probe_jobs(cohort);
    bench::Stopwatch oracle_timer;
    std::vector<rl::TrainResult> oracle_results;
    for (const auto& job : jobs) {
      oracle_results.push_back(oracle_train(probe_config, job));
    }
    const double oracle_s = oracle_timer.seconds();

    bench::Stopwatch engine_timer;
    const auto engine_results = probe_engine.train(jobs, nullptr);
    const double engine_s = engine_timer.seconds();

    bool identical = true;
    for (std::size_t i = 0; i < cohort; ++i) {
      identical &= engine_results[i].failed == oracle_results[i].failed &&
                   engine_results[i].train_rewards ==
                       oracle_results[i].train_rewards;
    }
    add_row("probe", cohort, 1, oracle_s, engine_s, identical);
    if (!identical) {
      all_identical = false;
      std::cout << "ERROR: engine curves diverged from the oracle at cohort "
                << cohort << "\n";
    }
  }

  // The pool, one task per job on both sides.
  {
    const std::size_t cohort = 32;
    const auto jobs = probe_jobs(cohort);
    bench::Stopwatch oracle_timer;
    std::vector<rl::TrainResult> oracle_results(cohort);
    pool.parallel_for(cohort, [&](std::size_t i) {
      oracle_results[i] = oracle_train(probe_config, jobs[i]);
    });
    const double oracle_s = oracle_timer.seconds();

    bench::Stopwatch engine_timer;
    const auto engine_results = probe_engine.train(jobs, &pool);
    const double engine_s = engine_timer.seconds();

    bool identical = true;
    for (std::size_t i = 0; i < cohort; ++i) {
      identical &= engine_results[i].train_rewards ==
                   oracle_results[i].train_rewards;
    }
    add_row("probe", cohort, pool.size(), oracle_s, engine_s, identical);
    if (!identical) {
      all_identical = false;
      std::cout << "ERROR: pool-scheduled engine curves diverged from the "
                   "oracle\n";
    }
  }

  // Full training: every (design, seed) is one pool task on both sides;
  // the engine side is rl::run_sessions, as the funnel's baseline and
  // top-K stages call it.
  {
    rl::SessionConfig session_config;
    session_config.seeds = 2;
    session_config.train.epochs = scale.epoch_count(120, 24);
    session_config.train.test_interval =
        std::max<std::size_t>(session_config.train.epochs / 3, 1);
    session_config.train.max_eval_traces = 4;
    std::vector<rl::SessionJob> designs;
    for (std::size_t d = 0; d < 4; ++d) {
      designs.push_back(rl::SessionJob{&programs[d % programs.size()], &arch,
                                       0x5e55ULL + d});
    }
    const std::size_t sessions = designs.size() * session_config.seeds;

    bench::Stopwatch oracle_timer;
    std::vector<rl::TrainResult> oracle_results(sessions);
    pool.parallel_for(sessions, [&](std::size_t flat) {
      const rl::SessionJob& design = designs[flat / session_config.seeds];
      const std::size_t s = flat % session_config.seeds;
      oracle_results[flat] = oracle_train(
          session_config.train,
          rl::ProbeJob{design.program, design.spec,
                       design.base_seed + 0x9e3779b9ULL * (s + 1)});
    });
    const double oracle_s = oracle_timer.seconds();

    bench::Stopwatch engine_timer;
    const auto engine_results =
        rl::run_sessions(domain, designs, session_config, &pool);
    const double engine_s = engine_timer.seconds();

    bool identical = true;
    for (std::size_t flat = 0; flat < sessions; ++flat) {
      const rl::TrainResult& session =
          engine_results[flat / session_config.seeds]
              .sessions[flat % session_config.seeds];
      identical &= !session.test_scores.empty() &&
                   session.test_scores == oracle_results[flat].test_scores;
    }
    add_row("full train (4 designs x 2 seeds, ckpt)", sessions, pool.size(),
            oracle_s, engine_s, identical);
    if (!identical) {
      all_identical = false;
      std::cout << "ERROR: run_sessions test scores diverged from the "
                   "oracle\n";
    }
  }

  // Kernel-flavor sweep: the same cohort under each runnable flavor. avx2
  // must reproduce the scalar curves bit-for-bit (a divergence fails the
  // bench).
  {
    const nn::KernelFlavor entry_flavor = nn::kernel_flavor();
    std::vector<nn::KernelFlavor> flavors = {nn::KernelFlavor::kScalar};
    if (nn::built_with_avx2_kernels() && nn::cpu_supports_avx2()) {
      flavors.push_back(nn::KernelFlavor::kAvx2);
    }

    const std::size_t cohort = 16;
    const auto jobs = probe_jobs(cohort);

    util::TextTable sweep("Kernel-flavor sweep (engine, cohort 16)");
    sweep.set_header({"kernel", "engine cand/s", "vs scalar"});
    std::vector<rl::TrainResult> scalar_results;
    for (const nn::KernelFlavor f : flavors) {
      nn::set_kernel_flavor(f);
      bench::Stopwatch flavor_timer;
      const auto flavor_results = probe_engine.train(jobs, nullptr);
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
        comparison = identical ? "bit-identical" : "DIVERGED";
        if (!identical) {
          all_identical = false;
          std::cout << "ERROR: avx2 curves diverged from scalar — the "
                       "bit-identity contract is broken\n";
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

  // Phase split: where one-thread probe time goes, per probe task. The
  // last row of each cohort is the task's wall-clock and the share of it
  // the phases cover.
  bool phases_cover = true;
  {
    util::TextTable split("Probe phase split (one thread, ms per probe)");
    split.set_header({"cohort", "phase", "ms/probe", "share"});

    // The ABR cohort is the shape nada_bench's abr-state-stream probes:
    // pre-check survivors of the ABR state-space stream on pensieve
    // 32/32/32 with a 64-wide merge.
    gen::StateGenerator stream(gen::abr_state_space(), gen::gpt4_profile(),
                               gen::PromptStrategy{}, 77);
    std::vector<dsl::StateProgram> survivors;
    for (const auto& candidate : stream.generate_batch(96)) {
      if (survivors.size() >= 8) break;
      std::optional<dsl::StateProgram> compiled;
      if (filter::compilation_check(candidate.source, domain.catalog(),
                                    &compiled)
              .passed &&
          filter::normalization_check(*compiled, domain.catalog()).passed) {
        survivors.push_back(std::move(*compiled));
      }
    }
    nn::ArchSpec pensieve = nn::ArchSpec::pensieve();
    pensieve.conv_filters = 32;
    pensieve.rnn_hidden = 32;
    pensieve.scalar_hidden = 32;
    pensieve.merge_hidden = 64;
    std::vector<rl::ProbeJob> abr_jobs;
    for (std::size_t i = 0; i < 16 && !survivors.empty(); ++i) {
      abr_jobs.push_back(rl::ProbeJob{&survivors[i % survivors.size()],
                                      &pensieve, 0x5bd1e995ULL * (i + 1)});
    }
    // The funnel's probe budget (nada_bench's 20 early epochs), whatever
    // the scale: network construction and weight init are in no phase,
    // and at a few epochs they would be a large share of a task.
    rl::TrainConfig split_config = probe_config;
    split_config.epochs = 20;
    const double abr_cover = add_phase_split(split, "abr pensieve", domain,
                                             split_config, abr_jobs);

    const trace::Dataset cc_dataset =
        trace::build_dataset(trace::Environment::k4G, scale.traces, 7);
    cc::CcConfig cc_config;
    cc_config.init_rate_mbps = 2.0;
    cc_config.steps_per_episode = 60;
    const cc::CcDomain cc_domain(cc_dataset, cc_config);
    const dsl::StateProgram cc_program =
        dsl::StateProgram::compile(cc_domain.baseline_state_source());
    std::vector<nn::ArchSpec> cc_archs;
    for (const nn::TemporalUnit unit :
         {nn::TemporalUnit::kConv1D, nn::TemporalUnit::kLstm,
          nn::TemporalUnit::kRnn}) {
      nn::ArchSpec spec = nn::ArchSpec::pensieve();
      spec.temporal = unit;
      spec.conv_filters = 16;
      spec.rnn_hidden = 16;
      spec.scalar_hidden = 16;
      spec.merge_hidden = 32;
      cc_archs.push_back(spec);
    }
    std::vector<rl::ProbeJob> cc_jobs;
    for (std::size_t i = 0; i < 12; ++i) {
      cc_jobs.push_back(rl::ProbeJob{&cc_program, &cc_archs[i % 3],
                                     0x27d4eb2fULL * (i + 1)});
    }
    const double cc_cover = add_phase_split(
        split, "cc conv/lstm/rnn", cc_domain, split_config, cc_jobs);

    std::cout << split.to_string() << "\n";
    bench::save_csv("probe_phases.csv", split);
    for (const double cover : {abr_cover, cc_cover}) {
      if (cover < kMinPhaseCover) {
        phases_cover = false;
        std::cout << "ERROR: the phases cover " << cover
                  << " of probe wall-clock, below " << kMinPhaseCover << "\n";
      }
    }
  }

  if (!all_identical) {
    std::cout << "FAILED: engine/oracle bit-identity violated\n";
    return 1;
  }
  if (!phases_cover) {
    std::cout << "FAILED: the probe phase split misses wall-clock\n";
    return 1;
  }
  return 0;
}
