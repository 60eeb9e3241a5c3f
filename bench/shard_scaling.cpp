// shard_scaling: probe throughput of the multi-worker driver.
//
// For 1/2/4 workers, runs one thread per store::ShardPlan(N) range — the
// in-process stand-in for N lease workers — each pre-checking and probing
// its range with ShardRunner::run_range, then the driver's
// merge_and_rank_paths pass. Reports candidates probed per second of
// worker wall-clock, parallel efficiency t1 / (N * tN), and the mean
// per-worker generate-stage seconds: every worker replays and
// fingerprints the WHOLE stream, a cost that does not shrink with N and
// bounds the efficiency. The merged best candidate and the probe total
// are verified against the single-process run each time, and the bench
// exits 1 when any row differs: scaling must not change the answer.
//
// The stream is a fixed kCandidates whatever NADA_SCALE_GEN says: scaled
// down, the 1-worker pass lasted hundredths of a second and the table
// measured thread start-up, not probing. Worker threads run no pool, so
// N workers want N free cores; the core count is in the table title. Each
// worker phase runs kRepeats times over fresh journals and the fastest
// counts, so one slow run on a shared host does not skew the efficiency.
//
// Writes bench_results/shard_scaling.csv.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "env/abr_domain.h"
#include "examples/example_common.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/observer.h"
#include "search/search_job.h"
#include "search/shard_runner.h"
#include "store/shard.h"
#include "trace/generator.h"
#include "util/fs.h"
#include "util/table.h"
#include "video/video.h"

namespace {

/// About 3 s of single-worker probing on one core of a 4-core x86 box.
constexpr std::size_t kCandidates = 1024;
constexpr int kRepeats = 3;

double generate_seconds(const nada::search::RecordingObserver& recording) {
  double seconds = 0.0;
  for (const auto& event : recording.finished) {
    if (event.stage == nada::search::StageKind::kGenerate) {
      seconds += event.seconds;
    }
  }
  return seconds;
}

}  // namespace

int main() {
  using namespace nada;
  const util::ScaleConfig scale = util::ScaleConfig::from_env();
  bench::banner("shard_scaling: multi-worker probe throughput", scale);

  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.05, 21);
  const video::Video video =
      video::make_test_video(video::youtube_ladder(), 42);
  const env::AbrDomain domain(dataset, video);

  search::SearchConfig config = examples::demo_funnel_config(
      kCandidates, /*early_epochs=*/8, /*full_train_top=*/3,
      /*seeds=*/2, /*epochs=*/24, /*test_interval=*/8,
      /*max_eval_traces=*/4);
  config.baseline_arch = examples::small_pensieve_arch(8, 0, 8, 16);
  const std::uint64_t seed = 1234;
  const std::uint64_t gen_seed = 77;
  const search::FixedDesign fixed{nullptr, &config.baseline_arch};

  auto make_source = [&](std::unique_ptr<gen::StateGenerator>& keep) {
    keep = std::make_unique<gen::StateGenerator>(
        gen::gpt4_profile(), gen::PromptStrategy{}, gen_seed);
    return std::make_unique<search::StateCandidateSource>(*keep);
  };

  // Single-process reference (every run below uses a fresh store
  // directory, so nothing is served warm).
  const std::string base_dir = "bench_shard_scaling_store";
  std::string single_best;
  std::size_t single_probes = 0;
  {
    const std::string dir = base_dir + "/single";
    util::ensure_directories(dir);
    const auto scope = search::store_scope(domain, config, seed);
    const std::string path = dir + "/single.nsb";
    std::remove(path.c_str());
    store::CandidateStore store(path, scope);
    std::unique_ptr<gen::StateGenerator> generator;
    auto source = make_source(generator);
    search::JobOptions options;
    options.store = &store;
    options.metrics = bench::bench_metrics();  // NADA_BENCH_METRICS opt-in
    search::SearchJob job(domain, config, seed, *source, fixed, options);
    const bench::Stopwatch watch;
    const auto result = job.run_to_completion();
    single_best = result.has_best() ? result.outcomes[result.best_index].id
                                    : "(none)";
    single_probes = result.n_probes_run;
    std::cout << "single-process: " << result.n_probes_run << " probes, "
              << result.n_full_trains_run << " full trainings, best "
              << single_best << ", " << watch.seconds() << "s\n";
  }

  util::TextTable table(
      "shard_scaling (" + std::to_string(config.num_candidates) +
      " candidates, " +
      std::to_string(std::thread::hardware_concurrency()) + " cores)");
  table.set_header({"workers", "worker wall s", "probes", "probe cand/s",
                    "parallel eff", "generate s/worker", "merge+rank s",
                    "matches single"});
  double one_worker_seconds = 0.0;
  bool all_match = true;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const std::string dir = base_dir + "/w" + std::to_string(workers);
    search::ShardRunnerConfig runner_config;
    runner_config.store_dir = dir;
    runner_config.metrics = bench::bench_metrics();
    search::ShardRunner runner(domain, config, seed, runner_config);
    const store::ShardPlan plan(workers);
    std::vector<std::string> journals;
    for (std::size_t w = 0; w < workers; ++w) {
      journals.push_back(dir + "/range-" + std::to_string(w) + ".nsb");
    }

    // Worker phase: one thread per range, each replaying its own stream.
    double worker_seconds = 0.0;
    std::size_t total_probes = 0;
    double generate_total = 0.0;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      for (const auto& journal : journals) std::remove(journal.c_str());
      std::vector<std::size_t> probes(workers, 0);
      std::vector<search::RecordingObserver> recordings(workers);
      const bench::Stopwatch worker_watch;
      {
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
          threads.emplace_back([&, w] {
            std::unique_ptr<gen::StateGenerator> generator;
            auto source = make_source(generator);
            probes[w] = runner
                            .run_range(plan.range(w), journals[w], *source,
                                       fixed, {&recordings[w]})
                            .n_probes_run;
          });
        }
        for (auto& thread : threads) thread.join();
      }
      const double seconds = worker_watch.seconds();
      if (repeat > 0 && seconds >= worker_seconds) continue;
      worker_seconds = seconds;
      total_probes = 0;
      generate_total = 0.0;
      for (std::size_t w = 0; w < workers; ++w) {
        total_probes += probes[w];
        generate_total += generate_seconds(recordings[w]);
      }
    }
    if (workers == 1) one_worker_seconds = worker_seconds;

    std::remove(runner.merged_store_path().c_str());
    std::unique_ptr<gen::StateGenerator> generator;
    auto source = make_source(generator);
    const bench::Stopwatch merge_watch;
    const auto merged = runner.merge_and_rank_paths(journals, *source, fixed);
    const double merge_seconds = merge_watch.seconds();

    const std::string best = merged.has_best()
                                 ? merged.outcomes[merged.best_index].id
                                 : "(none)";
    const bool matches = best == single_best &&
                         total_probes == single_probes &&
                         merged.n_probes_run == 0;
    all_match = all_match && matches;
    table.add_row(
        {std::to_string(workers), util::format_double(worker_seconds, 2),
         std::to_string(total_probes),
         util::format_double(
             static_cast<double>(total_probes) / worker_seconds, 1),
         util::format_double(one_worker_seconds /
                                 (static_cast<double>(workers) *
                                  worker_seconds),
                             2),
         util::format_double(generate_total / static_cast<double>(workers),
                             3),
         util::format_double(merge_seconds, 2), matches ? "yes" : "NO"});
  }
  table.print(std::cout);
  bench::save_csv("shard_scaling.csv", table);
  bench::dump_bench_metrics();
  return all_match ? 0 : 1;
}
