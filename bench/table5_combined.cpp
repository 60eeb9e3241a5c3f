// Table 5: combining the states and neural networks generated with the
// GPT-3.5 profile.
//
// The paper crosses the top-30 states with the top-30 architectures (900
// combinations); the scaled version crosses the top-k of each search and
// trains every combination, reporting the per-environment improvement of
// state-only, net-only, and combined designs over the original.
#include <algorithm>
#include <iostream>

#include "bench/bench_common.h"
#include "env/abr_domain.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "rl/session.h"
#include "search/candidate.h"
#include "search/search_job.h"

namespace {

struct PaperEntry {
  double state, net, combined;  // improvements (fractions)
};

PaperEntry paper_improvements(nada::trace::Environment env) {
  using E = nada::trace::Environment;
  switch (env) {
    case E::kFcc: return {0.017, 0.014, 0.022};
    case E::kStarlink: return {0.529, 0.500, 0.611};
    case E::k4G: return {0.130, 0.026, 0.165};
    case E::k5G: return {0.022, 0.030, 0.031};
  }
  return {};
}

/// Indices of the fully trained outcomes, best first.
std::vector<std::size_t> ranked_trained(
    const nada::search::SearchResult& result) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    if (result.outcomes[i].fully_trained) idx.push_back(i);
  }
  std::sort(idx.begin(), idx.end(), [&result](std::size_t a, std::size_t b) {
    return result.outcomes[a].test_score > result.outcomes[b].test_score;
  });
  return idx;
}

}  // namespace

int main() {
  using namespace nada;
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("Table 5 — Combining generated states and architectures",
                scale);
  bench::Stopwatch timer;
  util::ThreadPool pool;
  // Paper: top 30 x top 30 = 900 combinations; scaled: top_k x top_k.
  const std::size_t top_k =
      std::clamp<std::size_t>(scale.gen_count(30, 2), 2, 4);

  util::TextTable table("Table 5 improvements (paper value in parentheses)");
  table.set_header({"Dataset", "State", "Neural Net", "Combined"});

  for (const auto env : trace::all_environments()) {
    const char* env_name = trace::environment_name(env);
    const trace::Dataset dataset =
        trace::build_dataset(env, scale.traces, 42);
    const bool high_bw = env == trace::Environment::k4G ||
                         env == trace::Environment::k5G;
    const video::Video video = video::make_test_video(
        high_bw ? video::youtube_ladder() : video::pensieve_ladder(), 7);

    const env::AbrDomain domain(dataset, video);
    search::SearchConfig config = search::scaled_config(env, scale);
    config.full_train_top = top_k;
    const std::uint64_t seed = 5000 + static_cast<int>(env);
    // One baseline for both searches, shared through the jobs' cache slot.
    std::optional<rl::SessionResult> baseline =
        search::train_baseline(domain, config, seed, &pool);
    const double original = baseline->test_score;
    search::JobOptions options;
    options.pool = &pool;
    options.baseline_cache = &baseline;

    gen::StateGenerator state_gen(gen::gpt35_profile(), gen::PromptStrategy{},
                                  71 + static_cast<int>(env));
    search::StateCandidateSource states(state_gen);
    search::SearchJob state_job(
        domain, config, seed, states,
        search::FixedDesign{nullptr, &config.baseline_arch}, options);
    const auto state_result = state_job.run_to_completion();

    gen::ArchGenerator arch_gen(gen::gpt35_profile(), gen::PromptStrategy{},
                                72 + static_cast<int>(env), scale.model);
    search::ArchCandidateSource archs(arch_gen);
    const auto original_state =
        dsl::StateProgram::compile(dsl::pensieve_state_source());
    search::SearchJob arch_job(domain, config, seed, archs,
                               search::FixedDesign{&original_state, nullptr},
                               options);
    const auto arch_result = arch_job.run_to_completion();

    const auto top_states = ranked_trained(state_result);
    const auto top_archs = ranked_trained(arch_result);

    // Cross the winners: every (state, arch) pair gets full training.
    struct Combo {
      std::size_t state_idx;
      std::size_t arch_idx;
      double score = -1e9;
    };
    std::vector<Combo> combos;
    for (std::size_t s = 0; s < std::min(top_states.size(), top_k); ++s) {
      for (std::size_t a = 0; a < std::min(top_archs.size(), top_k); ++a) {
        combos.push_back(Combo{top_states[s], top_archs[a]});
      }
    }
    rl::SessionConfig session_config;
    session_config.seeds = config.seeds;
    session_config.train = config.train;
    pool.parallel_for(combos.size(), [&](std::size_t c) {
      const auto program = dsl::StateProgram::compile(
          state_result.outcomes[combos[c].state_idx].source);
      const auto result = rl::run_sessions(
          domain, program, *arch_result.outcomes[combos[c].arch_idx].arch,
          session_config, 6000 + c, nullptr);
      combos[c].score = result.failed ? -1e9 : result.test_score;
    });

    double best_combined = original;
    for (const auto& combo : combos) {
      best_combined = std::max(best_combined, combo.score);
    }
    const double state_best =
        state_result.has_best() ? state_result.best_score : original;
    const double arch_best =
        arch_result.has_best() ? arch_result.best_score : original;

    const PaperEntry paper = paper_improvements(env);
    auto impr = [original](double score) {
      return original != 0.0 ? (score - original) / std::abs(original) : 0.0;
    };
    table.add_row({env_name,
                   util::format_percent(impr(state_best), 1) + " (" +
                       util::format_percent(paper.state, 1) + ")",
                   util::format_percent(impr(arch_best), 1) + " (" +
                       util::format_percent(paper.net, 1) + ")",
                   util::format_percent(impr(best_combined), 1) + " (" +
                       util::format_percent(paper.combined, 1) + ")"});
    std::cout << "[" << env_name << "] " << combos.size()
              << " combinations trained (paper: 900)\n";
  }

  table.print(std::cout);
  bench::save_csv("table5_combined.csv", table);
  std::cout << "[done] " << util::format_double(timer.seconds(), 1)
            << " s\n";
  return 0;
}
