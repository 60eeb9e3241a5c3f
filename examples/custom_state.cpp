// custom_state: write your own ABR state function in NadaScript, validate
// it with NADA's pre-checks, train it, and compare against Pensieve's.
//
// Demonstrates the state-function DSL: available inputs, builtins (trend,
// EMA, Savitzky-Golay smoothing, linear-regression prediction), and the
// compile/normalization checks a design must pass before training.
//
// Run: ./build/examples/custom_state
#include <iostream>

#include "dsl/state_program.h"
#include "filter/checks.h"
#include "rl/session.h"
#include "trace/generator.h"
#include "util/table.h"
#include "video/video.h"
#include "env/abr_domain.h"

int main() {
  using namespace nada;

  // A 4G-oriented design using the features §4 of the paper highlights:
  // ladder-relative normalization, buffer history trends, and predicted
  // throughput.
  const std::string my_state = R"(# custom: ladder-aware + buffer-trend state
emit "last_quality" = last_bitrate_kbps / max_bitrate_kbps;
emit "buffer_s" = buffer_size_s / 10.0;
emit "throughput" = throughput_mbps / (max_bitrate_kbps / 1000.0);
emit "next_sizes" = next_chunk_sizes_bytes * 8.0 / (max_bitrate_kbps * 1000.0 * chunk_length_s);
emit "chunks_left" = chunks_remaining / total_chunks;
emit "buf_trend" = trend(buffer_size_s_history) / chunk_length_s;
emit "tput_pred" = linreg_predict(throughput_mbps) / (max_bitrate_kbps / 1000.0);
)";

  std::cout << "Input variables available to state programs:\n";
  for (const auto& var : env::input_variables()) {
    std::cout << "  " << var.name << (var.is_vector ? "  (vector)" : "")
              << "\n";
  }

  // --- validate -------------------------------------------------------------
  std::optional<dsl::StateProgram> program;
  const auto compile = filter::compilation_check(my_state, env::abr_catalog(), &program);
  if (!compile.passed) {
    std::cerr << "compilation check failed: " << compile.reason << "\n";
    return 1;
  }
  const auto norm = filter::normalization_check(*program, env::abr_catalog());
  if (!norm.passed) {
    std::cerr << "normalization check failed: " << norm.reason << "\n";
    return 1;
  }
  std::cout << "\nBoth pre-checks passed. State shape:";
  for (std::size_t len : program->run(env::abr_catalog().canned()).row_lengths()) {
    std::cout << " " << len;
  }
  std::cout << "\n";

  // --- train & compare -------------------------------------------------------
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.08, 5);
  const video::Video video = video::make_test_video(video::youtube_ladder(),
                                                    3);
  rl::SessionConfig config;
  config.seeds = 3;
  config.train.epochs = 1500;
  config.train.test_interval = 75;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = arch.rnn_hidden = arch.scalar_hidden =
      arch.merge_hidden = 32;
  util::ThreadPool pool;

  std::cout << "Training custom and original states ("
            << config.train.epochs << " epochs x " << config.seeds
            << " seeds each)...\n";
  const auto original =
      dsl::StateProgram::compile(dsl::pensieve_state_source());
  const env::AbrDomain domain(dataset, video);
  const auto results = rl::run_sessions(
      domain, {{&original, &arch, 31}, {&*program, &arch, 31}}, config, &pool);
  const auto& original_result = results[0];
  const auto& custom_result = results[1];

  util::TextTable table("4G test scores");
  table.set_header({"State design", "Score"});
  table.add_row({"Pensieve original",
                 util::format_double(original_result.test_score, 3)});
  table.add_row({"custom (ladder-aware)",
                 util::format_double(custom_result.test_score, 3)});
  table.print(std::cout);
  const double impr =
      (custom_result.test_score - original_result.test_score) /
      std::abs(original_result.test_score);
  std::cout << "Improvement: " << util::format_percent(impr, 1) << "\n";
  return 0;
}
