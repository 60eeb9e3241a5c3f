// Supplementary bench (not a paper table): classic ABR baselines vs the
// trained original Pensieve design and the best NADA-generated state, per
// environment. Positions the paper's RL results against the hand-designed
// algorithms the ABR literature measures by (BBA, rate-based, RobustMPC).
#include <iostream>

#include "abr/policies.h"
#include "bench/bench_common.h"
#include "env/abr_domain.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/search_job.h"

int main() {
  using namespace nada;
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("Supplementary — classic baselines vs NADA designs", scale);
  bench::Stopwatch timer;
  util::ThreadPool pool;

  util::TextTable table("Mean per-chunk QoE on held-out traces");
  table.set_header({"Dataset", "fixed-0", "buffer-based", "rate-based",
                    "robust-mpc", "RL original", "RL best generated"});

  for (const auto env : trace::all_environments()) {
    const trace::Dataset dataset =
        trace::build_dataset(env, scale.traces, 42);
    const bool high_bw = env == trace::Environment::k4G ||
                         env == trace::Environment::k5G;
    const video::Video video = video::make_test_video(
        high_bw ? video::youtube_ladder() : video::pensieve_ladder(), 7);

    std::vector<std::string> row = {trace::environment_name(env)};
    for (auto& policy : abr::standard_baselines()) {
      row.push_back(util::format_double(
          abr::evaluate_policy(*policy, dataset.test, video,
                               env::Fidelity::kSimulation, 11),
          3));
    }

    const env::AbrDomain domain(dataset, video);
    const search::SearchConfig config = search::scaled_config(env, scale);
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  33 + static_cast<int>(env));
    search::StateCandidateSource source(generator);
    search::JobOptions options;
    options.pool = &pool;
    search::SearchJob job(domain, config, 7000 + static_cast<int>(env),
                          source,
                          search::FixedDesign{nullptr, &config.baseline_arch},
                          options);
    const auto result = job.run_to_completion();
    row.push_back(util::format_double(result.original_score, 3));
    row.push_back(util::format_double(
        result.has_best() ? result.best_score : result.original_score, 3));
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  bench::save_csv("baselines_compare.csv", table);
  std::cout << "[done] " << util::format_double(timer.seconds(), 1)
            << " s\n";
  return 0;
}
