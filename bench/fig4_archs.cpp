// Figure 4: test performance of the best generated neural network
// architectures versus the original, per environment, in simulation.
//
// §3.3 restricts the architecture study to GPT-3.5 (budget constraints);
// the paper reports 760/3000 architectures passing the compilation check,
// pronounced improvements on Starlink/4G/5G, and no significant gain on
// FCC. This bench runs the architecture search with the original Pensieve
// state fixed and writes the Figure-4 curves.
#include <iostream>

#include "bench/bench_common.h"
#include "env/abr_domain.h"
#include "gen/arch_gen.h"
#include "search/candidate.h"
#include "search/search_job.h"

int main() {
  using namespace nada;
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("Figure 4 — Best generated architectures vs original", scale);
  bench::Stopwatch timer;
  util::ThreadPool pool;

  util::TextTable summary("Figure 4 summary (final scores)");
  summary.set_header({"Dataset", "Original", "Best Generated", "Impr.",
                      "Compilable", "Best arch"});
  util::TextTable fig4("Figure 4 curves");
  fig4.set_header({"dataset", "epoch", "original", "best"});

  const auto state =
      dsl::StateProgram::compile(dsl::pensieve_state_source());

  for (const auto env : trace::all_environments()) {
    const char* env_name = trace::environment_name(env);
    const trace::Dataset dataset =
        trace::build_dataset(env, scale.traces, 42);
    const bool high_bw = env == trace::Environment::k4G ||
                         env == trace::Environment::k5G;
    const video::Video video = video::make_test_video(
        high_bw ? video::youtube_ladder() : video::pensieve_ladder(), 7);

    const env::AbrDomain domain(dataset, video);
    const search::SearchConfig config = search::scaled_config(env, scale);
    gen::ArchGenerator generator(gen::gpt35_profile(), gen::PromptStrategy{},
                                 55 + static_cast<int>(env), scale.model);
    search::ArchCandidateSource source(generator);
    search::JobOptions options;
    options.pool = &pool;
    search::SearchJob job(domain, config, 3000 + static_cast<int>(env),
                          source, search::FixedDesign{&state, nullptr},
                          options);
    const search::SearchResult result = job.run_to_completion();

    const double original_score = result.original_score;
    const double best =
        result.has_best() ? result.best_score : original_score;
    const double impr =
        original_score != 0.0
            ? (best - original_score) / std::abs(original_score)
            : 0.0;
    const std::string arch_desc =
        result.has_best() && result.outcomes[result.best_index].arch
            ? result.outcomes[result.best_index].arch->describe()
            : "-";
    summary.add_row(
        {env_name, util::format_double(original_score, 3),
         util::format_double(best, 3), util::format_percent(impr, 1),
         std::to_string(result.n_compiled) + "/" +
             std::to_string(result.n_total),
         arch_desc});

    if (result.has_best()) {
      const auto& best_outcome = result.outcomes[result.best_index];
      const std::size_t points = std::min(
          best_outcome.median_curve.size(), result.original.median_curve.size());
      for (std::size_t i = 0; i < points; ++i) {
        fig4.add_row({env_name,
                      util::format_double(best_outcome.curve_epochs[i], 0),
                      util::format_double(result.original.median_curve[i], 4),
                      util::format_double(best_outcome.median_curve[i], 4)});
      }
    }
  }

  summary.print(std::cout);
  std::cout << "Paper reference: gains pronounced on Starlink/4G/5G, FCC "
               "not statistically significant;\narchitecture gains smaller "
               "than state gains overall (§3.3).\n";
  bench::save_csv("fig4_arch_summary.csv", summary);
  bench::save_csv("fig4_arch_curves.csv", fig4);
  std::cout << "[done] " << util::format_double(timer.seconds(), 1)
            << " s\n";
  return 0;
}
