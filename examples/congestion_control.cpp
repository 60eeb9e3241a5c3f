// congestion_control: the paper's §5 extension direction, as a first-class
// search domain.
//
// NADA's framework only requires (1) an algorithm with a code
// implementation and (2) a simulator to score it. This example runs the
// full funnel — generate CC state functions -> pre-check against the CC
// binding catalog -> batched probe -> early-stop ranking -> full training
// -> rank — over cc::CcDomain, through search::SearchJob, i.e. exactly the
// code path the ABR search uses. A persistent candidate store makes the
// second invocation serve every stage from its journal.
//
// Run: ./build/examples/congestion_control
#include <iostream>

#include "cc/cc_domain.h"
#include "cc/cc_env.h"
#include "cc/cc_state.h"
#include "examples/example_common.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/search_job.h"
#include "store/candidate_store.h"
#include "trace/generator.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

int main() {
  using namespace nada;

  std::cout << "CC state-function input variables:\n";
  for (const auto& var : cc::cc_input_variables()) {
    std::cout << "  " << var.name << (var.is_vector ? " (vector)" : "")
              << "\n";
  }
  std::cout << "\nBaseline (hand-written) CC state function:\n"
            << cc::default_cc_state_source() << "\n";

  // Domain: a 4G-like fluctuating bottleneck, short monitor episodes so
  // the demo finishes in seconds.
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.2, 7);
  cc::CcConfig cc_config;
  cc_config.init_rate_mbps = 2.0;
  cc_config.steps_per_episode = 60;
  const cc::CcDomain domain(dataset, cc_config);

  // Funnel budgets (tiny demo scale).
  search::SearchConfig config =
      examples::demo_funnel_config(/*candidates=*/24, /*early_epochs=*/6,
                                   /*full_train_top=*/3, /*seeds=*/2,
                                   /*epochs=*/16, /*test_interval=*/8,
                                   /*max_eval_traces=*/3);
  config.baseline_arch = examples::small_pensieve_arch(8, 8, 8, 16);

  util::ThreadPool pool(4);
  const std::uint64_t seed = 2024;

  // Persistent store: reruns of this example serve cached stages.
  const auto store =
      examples::open_default_store(search::store_scope(domain, config, seed));
  std::cout << "\n";

  // CC candidates from the CC design space; the same generator machinery
  // the ABR search uses, pointed at the CC binding vocabulary.
  gen::StateGenerator generator(gen::cc_state_space(), gen::gpt4_profile(),
                                gen::PromptStrategy{}, 11);
  search::StateCandidateSource source(generator);

  std::cout << "Running the CC search funnel (generate -> pre-check -> "
               "batched probe -> rank -> full train)...\n";
  search::JobOptions options;
  options.store = store.get();
  options.pool = &pool;
  search::SearchJob job(domain, config, seed, source,
                        search::FixedDesign{nullptr, &config.baseline_arch},
                        options);
  const search::SearchResult result = job.run_to_completion();
  examples::print_funnel_summary(result);

  // AIMD reference over the same strided test-trace subset the trained
  // policies' checkpoint evaluations use (max_eval_traces). Episode start
  // offsets still differ between the runs (each trained seed evaluates
  // under its own eval seed), so read the table as indicative, not as an
  // episode-matched head-to-head.
  const auto eval_units =
      rl::eval_trace_indices(domain.num_eval_units(),
                             config.train.max_eval_traces);
  util::Rng aimd_rng(23);
  const cc::AimdController aimd;
  util::RunningStats aimd_rewards;
  for (std::size_t unit : eval_units) {
    cc::CcEnv env(dataset.test[unit], cc_config, aimd_rng);
    const dsl::Bindings& frame = env.reset();
    while (!env.done()) aimd_rewards.add(env.step(aimd.act(frame)).reward);
  }

  util::TextTable table(
      "Mean per-interval reward (held-out capacity traces)");
  table.set_header({"Controller", "Reward"});
  table.add_row({"AIMD", util::format_double(aimd_rewards.mean(), 3)});
  table.add_row({"hand-written CC state (trained)",
                 util::format_double(result.original_score, 3)});
  if (result.has_best()) {
    const auto& best = result.outcomes[result.best_index];
    table.add_row({"best searched CC state (" + best.id + ")",
                   util::format_double(best.test_score, 3)});
  }
  table.print(std::cout);

  if (result.has_best()) {
    std::cout << "\nBest searched CC state function:\n"
              << result.outcomes[result.best_index].source;
  }
  std::cout << "\nRe-run this example: every funnel stage above is served "
               "from the store journal\n(probes run and full trains run "
               "drop to 0).\n";
  return 0;
}
