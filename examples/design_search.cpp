// design_search: run the full NADA loop on the Starlink environment and
// print what it found.
//
// This is the paper's Figure-1 workflow end to end at demo scale:
// generate candidate state functions with the GPT-4-calibrated generator,
// filter them through the compilation and normalization checks, probe the
// survivors with short training runs, fully train the most promising, and
// compare the winner with Pensieve's original state.
//
// Run: ./build/examples/design_search
#include <iostream>

#include "env/abr_domain.h"
#include "examples/example_common.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/search_job.h"
#include "util/table.h"

int main() {
  using namespace nada;

  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kStarlink, 0.3, 2024);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 11);
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool;

  search::SearchConfig config =
      examples::demo_funnel_config(/*candidates=*/60, /*early_epochs=*/80,
                                   /*full_train_top=*/4, /*seeds=*/3,
                                   /*epochs=*/500, /*test_interval=*/25,
                                   /*max_eval_traces=*/0);
  config.baseline_arch = examples::small_pensieve_arch(32, 32, 32, 32);

  std::cout << "Searching " << config.num_candidates
            << " generated state designs on Starlink...\n";
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                7);
  search::StateCandidateSource source(generator);
  search::JobOptions options;
  options.pool = &pool;
  search::SearchJob job(domain, config, 99, source,
                        search::FixedDesign{nullptr, &config.baseline_arch},
                        options);
  const search::SearchResult result = job.run_to_completion();

  std::cout << "\nFunnel: " << result.n_total << " generated -> "
            << result.n_compiled << " compiled -> " << result.n_normalized
            << " well-normalized -> "
            << (result.n_normalized - result.n_early_stopped)
            << " kept after probes -> " << result.n_fully_trained
            << " fully trained\n";

  // Show a couple of rejected candidates and why.
  std::cout << "\nSample rejections:\n";
  std::size_t shown = 0;
  for (const auto& outcome : result.outcomes) {
    if (shown >= 3) break;
    if (!outcome.compiled) {
      std::cout << "  [" << outcome.id << "] compilation check: "
                << outcome.compile_error << "\n";
      ++shown;
    } else if (!outcome.normalized) {
      std::cout << "  [" << outcome.id << "] normalization check: "
                << outcome.normalization_error << "\n";
      ++shown;
    }
  }

  std::cout << "\nOriginal (Pensieve) score: "
            << util::format_double(result.original_score, 3) << "\n";
  if (result.has_best()) {
    const auto& best = result.outcomes[result.best_index];
    std::cout << "Best generated score:      "
              << util::format_double(result.best_score, 3) << "  ("
              << util::format_percent(result.improvement(), 1)
              << " vs original)\n";
    std::cout << "\n--- winning state function (" << best.id << ") ---\n"
              << best.source << "---\n";
  } else {
    std::cout << "No candidate survived to full training (rerun with more "
                 "candidates).\n";
  }
  return 0;
}
