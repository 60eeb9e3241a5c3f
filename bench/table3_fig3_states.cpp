// Table 3 + Figure 3: test performance of the best states generated by
// NADA (GPT-3.5 / GPT-4 profiles) versus the original Pensieve state, per
// network environment, in simulation.
//
// For each environment this runs the full NADA funnel — generate, pre-check,
// probe, select, fully train — with both LLM profiles, prints the Table-3
// rows (score + improvement, paper values alongside), and writes the
// Figure-3 test-score-vs-epoch curves (original vs best generated) to CSV.
#include <iostream>

#include "bench/bench_common.h"
#include "env/abr_domain.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/search_job.h"

namespace {

struct PaperEntry {
  double original;
  double gpt35;
  double gpt4;
};

// Table 3 values from the paper.
nada::trace::Environment envs[] = {
    nada::trace::Environment::kFcc, nada::trace::Environment::kStarlink,
    nada::trace::Environment::k4G, nada::trace::Environment::k5G};

PaperEntry paper_scores(nada::trace::Environment env) {
  using E = nada::trace::Environment;
  switch (env) {
    case E::kFcc: return {1.070, 1.089, 1.090};
    case E::kStarlink: return {0.308, 0.472, 0.482};
    case E::k4G: return {11.705, 13.226, 14.973};
    case E::k5G: return {27.848, 28.447, 28.636};
  }
  return {};
}

}  // namespace

int main() {
  using namespace nada;
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("Table 3 + Figure 3 — Best generated states vs original",
                scale);
  bench::Stopwatch timer;
  util::ThreadPool pool;

  util::TextTable table3("Table 3 (paper value in parentheses)");
  table3.set_header({"Dataset", "Method", "Score", "Impr."});

  util::TextTable fig3("Figure 3 curves");
  fig3.set_header({"dataset", "profile", "epoch", "original", "best"});

  for (const auto env : envs) {
    const char* env_name = trace::environment_name(env);
    const trace::Dataset dataset =
        trace::build_dataset(env, scale.traces, 42);
    const bool high_bw = env == trace::Environment::k4G ||
                         env == trace::Environment::k5G;
    const video::Video video = video::make_test_video(
        high_bw ? video::youtube_ladder() : video::pensieve_ladder(), 7);

    const env::AbrDomain domain(dataset, video);
    const search::SearchConfig config = search::scaled_config(env, scale);
    const std::uint64_t seed = 1000 + static_cast<int>(env);
    // Trained once up front; both profiles' searches share it.
    std::optional<rl::SessionResult> baseline =
        search::train_baseline(domain, config, seed, &pool);
    search::JobOptions options;
    options.pool = &pool;
    options.baseline_cache = &baseline;

    const PaperEntry paper = paper_scores(env);
    const double original_score = baseline->test_score;
    table3.add_row(
        {env_name, "Original",
         util::format_double(original_score, 3) + " (" +
             util::format_double(paper.original, 3) + ")",
         "-"});

    struct ProfileRun {
      gen::LlmProfile profile;
      double paper_score;
      double paper_original;
    };
    const ProfileRun runs[] = {
        {gen::gpt35_profile(), paper.gpt35, paper.original},
        {gen::gpt4_profile(), paper.gpt4, paper.original},
    };
    for (const auto& run : runs) {
      gen::StateGenerator generator(run.profile, gen::PromptStrategy{},
                                    77 + static_cast<int>(env));
      search::StateCandidateSource source(generator);
      search::SearchJob job(domain, config, seed, source,
                            search::FixedDesign{nullptr,
                                                &config.baseline_arch},
                            options);
      const search::SearchResult result = job.run_to_completion();
      const double best = result.has_best() ? result.best_score
                                            : original_score;
      const double impr = original_score != 0.0
                              ? (best - original_score) /
                                    std::abs(original_score)
                              : 0.0;
      const double paper_impr =
          (run.paper_score - run.paper_original) /
          std::abs(run.paper_original);
      table3.add_row(
          {env_name, "w/ " + run.profile.name,
           util::format_double(best, 3) + " (" +
               util::format_double(run.paper_score, 3) + ")",
           util::format_percent(impr, 1) + " (" +
               util::format_percent(paper_impr, 1) + ")"});

      // Figure 3 series: original vs best generated, median curves.
      if (result.has_best()) {
        const auto& best_outcome = result.outcomes[result.best_index];
        const auto& original = result.original;
        const std::size_t points =
            std::min(best_outcome.median_curve.size(),
                     original.median_curve.size());
        for (std::size_t i = 0; i < points; ++i) {
          fig3.add_row({env_name, run.profile.name,
                        util::format_double(best_outcome.curve_epochs[i], 0),
                        util::format_double(original.median_curve[i], 4),
                        util::format_double(best_outcome.median_curve[i], 4)});
        }
        std::cout << "[" << env_name << " / " << run.profile.name
                  << "] funnel: " << result.n_total << " -> "
                  << result.n_compiled << " compiled -> "
                  << result.n_normalized << " normalized -> "
                  << result.n_fully_trained << " fully trained; best="
                  << best_outcome.id << "\n";
      }
    }
  }

  table3.print(std::cout);
  bench::save_csv("table3_states.csv", table3);
  bench::save_csv("fig3_state_curves.csv", fig3);
  std::cout << "[done] " << util::format_double(timer.seconds(), 1)
            << " s\n";
  return 0;
}
