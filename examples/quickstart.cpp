// Quickstart: the 5-minute tour of the library.
//
//   1. Generate a synthetic 4G bandwidth trace.
//   2. Stream a video over it with a trivial fixed policy and look at QoE.
//   3. Compile Pensieve's state function (written in NadaScript).
//   4. Train an actor-critic ABR agent on a small dataset.
//   5. Evaluate it against the fixed policy.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart
#include <iostream>

#include "dsl/state_program.h"
#include "env/abr_env.h"
#include "rl/session.h"
#include "trace/generator.h"
#include "util/stats.h"
#include "util/table.h"
#include "video/video.h"
#include "env/abr_domain.h"

int main() {
  using namespace nada;

  // --- 1. A synthetic 4G trace (see trace::model_for for the model). -------
  util::Rng rng(7);
  const trace::Trace tr =
      trace::generate_trace(trace::Environment::k4G, 300.0, rng);
  std::cout << "Generated trace '" << tr.name() << "': "
            << tr.duration_s() << " s, mean "
            << util::format_double(tr.mean_kbps() / 1000.0, 1) << " Mbps\n";

  // --- 2. Stream with a fixed mid-ladder policy. ---------------------------
  const video::Video video = video::make_test_video(video::youtube_ladder(),
                                                    42);
  env::AbrEnv env(tr, video, env::Fidelity::kSimulation, rng);
  (void)env.reset();  // returns the observation frame, unused by this policy
  double fixed_total = 0.0;
  std::size_t stalls = 0;
  while (!env.done()) {
    fixed_total += env.step(2).reward;  // always 4.3 Mbps
    if (env.last_download().rebuffer_s > 0.0) ++stalls;
  }
  std::cout << "Fixed 4.3 Mbps policy: total QoE "
            << util::format_double(fixed_total, 1) << " over "
            << video.num_chunks() << " chunks (" << stalls << " stalls)\n";

  // --- 3. The original Pensieve state, as a NadaScript program. ------------
  const dsl::StateProgram state =
      dsl::StateProgram::compile(dsl::pensieve_state_source());
  const dsl::StateMatrix matrix = state.run(env::abr_catalog().canned());
  std::cout << "\nPensieve state matrix (" << matrix.rows.size()
            << " rows):\n";
  for (const auto& row : matrix.rows) {
    std::cout << "  " << row.name << " [" << row.values.size() << "]\n";
  }

  // --- 4. Train an agent (tiny budget; see bench/ for full experiments). ---
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.05, 21);
  rl::SessionConfig config;
  config.seeds = 2;
  config.train.epochs = 1000;
  config.train.test_interval = 100;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = arch.rnn_hidden = arch.scalar_hidden =
      arch.merge_hidden = 32;  // shrink for the demo
  std::cout << "\nTraining " << config.seeds << " sessions of "
            << config.train.epochs << " epochs (" << arch.describe()
            << ")...\n";
  const env::AbrDomain domain(dataset, video);
  const rl::SessionResult result =
      rl::run_sessions(domain, {{&state, &arch, 1234}}, config).front();

  // --- 5. Compare. -----------------------------------------------------------
  util::TextTable table("Results (mean per-chunk QoE on held-out traces)");
  table.set_header({"Policy", "Score"});
  double fixed_eval = 0.0;
  {
    util::Rng eval_rng(5);
    util::RunningStats rs;
    for (const auto& test_trace : dataset.test) {
      env::AbrEnv e(test_trace, video, env::Fidelity::kSimulation, eval_rng);
      (void)e.reset();
      while (!e.done()) rs.add(e.step(2).reward);
    }
    fixed_eval = rs.mean();
  }
  table.add_row({"fixed 4.3 Mbps", util::format_double(fixed_eval, 3)});
  table.add_row({"trained agent", util::format_double(result.test_score, 3)});
  table.print(std::cout);
  std::cout << "\nNext: examples/design_search shows NADA generating states"
               " that beat this one.\n";
  return 0;
}
