// Shared plumbing for the search CLIs (shard_worker, search_service).
//
// One supervised search spans several processes — lease workers and the
// supervisor with its merge driver — and they must agree on three things
// or the equivalence diffs against a single-process run (CI's supervised
// and observability smoke runs) are meaningless:
//
//   * the SEARCH: domain datasets, funnel config, generator seeds — built
//     here once (make_search_setup) and flag-for-flag identical across
//     every mode of every tool,
//   * the OUTPUT: `RANK,<pos>,<id>,<fingerprint>,<score>` lines
//     (print_ranking), so two runs diff with grep + diff,
//   * the EXIT CODES: the supervisor's restart policy branches on them
//     (kExitUsage aborts the run — a config bug reproduces under restart;
//     anything else nonzero is restartable), so they are constants pinned
//     by tests/svc_test.cpp, not incidental values.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "cc/cc_domain.h"
#include "env/abr_domain.h"
#include "examples/example_common.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/search_job.h"
#include "svc/supervisor.h"
#include "trace/generator.h"
#include "video/video.h"

namespace nada::tools {

/// Exit-code contract of the worker CLIs (docs/SERVICE.md). The supervisor
/// reads these: kExitUsage fails fast, every other nonzero code or signal
/// is treated as a restartable crash.
inline constexpr int kExitOk = 0;
/// Unhandled exception during the run (I/O error, bad store, ...).
inline constexpr int kExitRuntime = 1;
/// Bad command-line arguments. A supervisor restart would rebuild the same
/// argv and fail identically, so this is the supervisor's fail-fast code:
/// it aborts the whole run instead.
inline constexpr int kExitUsage = svc::kFailFastExitCode;
/// Test-only: --crash-after-candidates fired (hard _exit mid-append). A
/// deliberate value far from the conventional small codes so a real
/// failure is never mistaken for an injected one in CI assertions.
inline constexpr int kExitCrashInjected = 42;

/// Parses a numeric flag's value into `out` — an unsigned integer or a
/// floating-point type — from the WHOLE string: digits for integers, a
/// finite decimal for floating point. A sign, trailing characters, an
/// overflow or a non-finite value calls `usage` (which exits with
/// kExitUsage) naming the flag, so a config bug fails fast instead of
/// reaching the run as a restartable runtime error.
template <typename T>
void parse_number(const std::string& flag, const std::string& text, T& out,
                  void (*usage)(const std::string&)) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  T value{};
  bool ok = !text.empty() && text.front() != '-' && text.front() != '+';
  if (ok) {
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    ok = ec == std::errc{} && end == last;
  }
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) usage(flag + ": malformed number '" + text + "'");
  out = value;
}

/// Everything one funnel run needs, built from CLI flags. Heap-allocate
/// and keep put: `fixed` points into `config` / `fixed_state`, so the
/// struct must not move (no copy/move; make_search_setup returns a
/// unique_ptr).
struct SearchSetup {
  SearchSetup() = default;
  SearchSetup(const SearchSetup&) = delete;
  SearchSetup& operator=(const SearchSetup&) = delete;

  trace::Dataset dataset;
  std::optional<video::Video> video;
  cc::CcConfig cc_config;
  std::unique_ptr<env::TaskDomain> domain;
  search::SearchConfig config;
  std::unique_ptr<gen::StateGenerator> state_gen;
  std::unique_ptr<gen::ArchGenerator> arch_gen;
  std::unique_ptr<search::CandidateSource> source;
  std::optional<dsl::StateProgram> fixed_state;
  search::FixedDesign fixed;
};

/// The demo-scale funnel config every mode of every tool shares (the
/// search must be identical across worker, single, and supervised runs for
/// the equivalence diffs to mean anything).
inline search::SearchConfig demo_config(std::size_t candidates) {
  search::SearchConfig config = examples::demo_funnel_config(
      candidates, /*early_epochs=*/8, /*full_train_top=*/3, /*seeds=*/2,
      /*epochs=*/24, /*test_interval=*/8, /*max_eval_traces=*/4);
  config.baseline_arch = examples::small_pensieve_arch(8, 8, 8, 16);
  return config;
}

/// Builds the domain, funnel config, candidate stream, and fixed design
/// half from the flag values. The (dataset seed, cc parameters) are fixed:
/// every process of one supervised search must score candidates on the same
/// data or the merged journals would not be comparable. `domain_name` is
/// "abr"|"cc", `search_kind` "state"|"arch" (validate before calling).
inline std::unique_ptr<SearchSetup> make_search_setup(
    const std::string& domain_name, const std::string& search_kind,
    std::size_t candidates, std::uint64_t gen_seed, std::size_t window) {
  auto setup = std::make_unique<SearchSetup>();
  if (domain_name == "abr") {
    setup->dataset = trace::build_dataset(trace::Environment::k4G, 0.05, 21);
    setup->video = video::make_test_video(video::youtube_ladder(), 42);
    setup->domain =
        std::make_unique<env::AbrDomain>(setup->dataset, *setup->video);
  } else {
    setup->dataset = trace::build_dataset(trace::Environment::k4G, 0.2, 7);
    setup->cc_config.init_rate_mbps = 2.0;
    setup->cc_config.steps_per_episode = 60;
    setup->domain =
        std::make_unique<cc::CcDomain>(setup->dataset, setup->cc_config);
  }

  setup->config = demo_config(candidates);
  // Execution knob only: batch (window 0) and streaming runs share one
  // store scope, so their journals are directly comparable.
  setup->config.window_size = window;

  if (search_kind == "state") {
    setup->state_gen = std::make_unique<gen::StateGenerator>(
        domain_name == "cc" ? gen::cc_state_space() : gen::abr_state_space(),
        gen::gpt4_profile(), gen::PromptStrategy{}, gen_seed);
    setup->source =
        std::make_unique<search::StateCandidateSource>(*setup->state_gen);
    setup->fixed.arch = &setup->config.baseline_arch;
  } else {
    setup->arch_gen = std::make_unique<gen::ArchGenerator>(
        gen::gpt4_profile(), gen::PromptStrategy{}, gen_seed, 0.25);
    setup->source =
        std::make_unique<search::ArchCandidateSource>(*setup->arch_gen);
    setup->fixed_state =
        dsl::StateProgram::compile(setup->domain->baseline_state_source());
    setup->fixed.state = &*setup->fixed_state;
  }
  return setup;
}

/// Fingerprints of the ranked outcomes only, pulled by replaying the
/// stream in small windows and keeping just the wanted positions — the
/// ranking printout must not hold O(num_candidates) specs when the search
/// itself ran at O(window) memory.
inline std::map<std::size_t, std::string> ranked_fingerprints(
    search::CandidateSource& source, const search::FixedDesign& fixed,
    const search::SearchResult& result, std::size_t num_candidates) {
  std::set<std::size_t> wanted;
  for (const auto& outcome : result.outcomes) {
    if (outcome.fully_trained) wanted.insert(outcome.stream_index);
  }
  std::map<std::size_t, std::string> out;
  source.reset();
  std::size_t position = 0;
  while (!wanted.empty() && position < num_candidates) {
    const auto window = source.generate(
        std::min<std::size_t>(64, num_candidates - position));
    if (window.empty()) break;
    for (const auto& spec : window) {
      if (wanted.erase(position) > 0) {
        out[position] = search::fingerprint_of(spec, fixed).hex();
      }
      ++position;
    }
  }
  return out;
}

/// `RANK,<position>,<id>,<fingerprint>,<score>` lines, best first; ties by
/// stream position (the funnel's own tie-break), so the listing is
/// deterministic. Outcomes are addressed through stream_index rather than
/// their result position: in streaming mode the result holds only the
/// retained candidates, and the ranking must still diff cleanly against a
/// batch run.
inline void print_ranking(
    std::ostream& out, const search::SearchResult& result,
    const std::map<std::size_t, std::string>& fingerprints) {
  std::vector<std::size_t> ranked;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    if (result.outcomes[i].fully_trained) ranked.push_back(i);
  }
  std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
    if (result.outcomes[a].test_score != result.outcomes[b].test_score) {
      return result.outcomes[a].test_score > result.outcomes[b].test_score;
    }
    return result.outcomes[a].stream_index < result.outcomes[b].stream_index;
  });
  out << "baseline score: " << result.original_score << "\n";
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    const auto& outcome = result.outcomes[ranked[r]];
    out << "RANK," << r + 1 << "," << outcome.id << ","
        << fingerprints.at(outcome.stream_index) << ","
        << outcome.test_score << "\n";
  }
}

}  // namespace nada::tools
