// shard_scaling: probe throughput of the sharded multi-worker driver.
//
// For 1/2/4 shards, runs the worker phase (pre-check + probe of each
// shard's candidates) with one concurrent thread per worker — the
// in-process stand-in for N worker processes — then the driver's
// merge+rank pass, and reports candidates probed per second of worker
// wall-clock. The merged best candidate is verified against the
// single-process run each time: scaling must not change the answer.
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
#include "search/search_job.h"
#include "search/shard_runner.h"
#include "trace/generator.h"
#include "util/fs.h"
#include "util/table.h"
#include "video/video.h"

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
      scale.gen_count(96), /*early_epochs=*/8, /*full_train_top=*/3,
      /*seeds=*/2, /*epochs=*/24, /*test_interval=*/8,
      /*max_eval_traces=*/4);
  config.baseline_arch = examples::small_pensieve_arch(8, 0, 8, 16);
  const std::uint64_t seed = 1234;
  const std::uint64_t gen_seed = 77;

  auto make_source = [&](std::unique_ptr<gen::StateGenerator>& keep) {
    keep = std::make_unique<gen::StateGenerator>(
        gen::gpt4_profile(), gen::PromptStrategy{}, gen_seed);
    return std::make_unique<search::StateCandidateSource>(*keep);
  };

  // Single-process reference (also warms nothing: every run below uses a
  // fresh store directory).
  const std::string base_dir = "bench_shard_scaling_store";
  std::string single_best;
  double single_seconds = 0.0;
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
    search::SearchJob job(domain, config, seed, *source,
                          search::FixedDesign{nullptr, &config.baseline_arch},
                          options);
    const bench::Stopwatch watch;
    const auto result = job.run_to_completion();
    single_seconds = watch.seconds();
    single_best = result.has_best() ? result.outcomes[result.best_index].id
                                    : "(none)";
    std::cout << "single-process: " << result.n_probes_run << " probes, "
              << result.n_full_trains_run << " full trainings, best "
              << single_best << ", " << single_seconds << "s\n";
  }

  // Worker concurrency is real threads; on a 1-core box the wall-clock is
  // flat and only the correctness column is meaningful, so record the
  // core count next to the numbers.
  util::TextTable table(
      "shard_scaling (" + std::to_string(config.num_candidates) +
      " candidates, " +
      std::to_string(std::thread::hardware_concurrency()) + " cores)");
  table.set_header({"shards", "worker wall s", "probes", "probe cand/s",
                    "merge+rank s", "best matches single"});
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    const std::string dir = base_dir + "/s" + std::to_string(shards);
    search::ShardRunnerConfig shard_config;
    shard_config.num_shards = shards;
    shard_config.store_dir = dir;
    shard_config.metrics = bench::bench_metrics();
    search::ShardRunner runner(domain, config, seed, shard_config);
    for (std::size_t s = 0; s < shards; ++s) {
      util::ensure_directories(dir);
      std::remove(runner.shard_store_path(s).c_str());
    }
    std::remove(runner.merged_store_path().c_str());

    // Worker phase: one thread per shard, each replaying its own stream —
    // the in-process equivalent of N shard_worker processes.
    std::vector<std::size_t> probes(shards, 0);
    const bench::Stopwatch worker_watch;
    {
      std::vector<std::thread> workers;
      workers.reserve(shards);
      for (std::size_t s = 0; s < shards; ++s) {
        workers.emplace_back([&, s] {
          std::unique_ptr<gen::StateGenerator> generator;
          auto source = make_source(generator);
          const auto result = runner.run_worker(
              s, *source, search::FixedDesign{nullptr, &config.baseline_arch});
          probes[s] = result.n_probes_run;
        });
      }
      for (auto& worker : workers) worker.join();
    }
    const double worker_seconds = worker_watch.seconds();

    std::unique_ptr<gen::StateGenerator> generator;
    auto source = make_source(generator);
    const bench::Stopwatch merge_watch;
    const auto merged = runner.merge_and_rank(
        *source, search::FixedDesign{nullptr, &config.baseline_arch});
    const double merge_seconds = merge_watch.seconds();

    std::size_t total_probes = 0;
    for (std::size_t p : probes) total_probes += p;
    const std::string best = merged.has_best()
                                 ? merged.outcomes[merged.best_index].id
                                 : "(none)";
    table.add_row({std::to_string(shards),
                   util::format_double(worker_seconds, 2),
                   std::to_string(total_probes),
                   util::format_double(
                       static_cast<double>(total_probes) / worker_seconds, 2),
                   util::format_double(merge_seconds, 2),
                   best == single_best ? "yes" : "NO"});
  }
  table.print(std::cout);
  bench::save_csv("shard_scaling.csv", table);
  bench::dump_bench_metrics();
  return 0;
}
