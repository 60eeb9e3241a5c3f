// DSL execution bench: state-program steps/sec, the reference tree-walk
// oracle (tests/dsl_tree_oracle.h) vs the slot-resolved bytecode VM, the
// library's only engine, over the programs the funnel actually runs — the
// pensieve baseline plus generator-sampled ABR and CC survivors.
//
// Training dominates the funnel's compute and every training step runs the
// candidate's state program once, so steps/sec here translates directly to
// probe throughput (see bench/probe_batch.cpp for the end-to-end number).
// Each timed pair is also a bit-identity check: any tree/VM divergence
// fails the bench, not just the speedup target.
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cc/cc_state.h"
#include "dsl/state_program.h"
#include "dsl/vm.h"
#include "env/abr_domain.h"
#include "filter/checks.h"
#include "gen/state_gen.h"
#include "tests/dsl_tree_oracle.h"
#include "util/rng.h"

namespace {

bool same_bits(double x, double y) {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::memcpy(&a, &x, sizeof(a));
  std::memcpy(&b, &y, sizeof(b));
  return a == b;
}

bool matrices_identical(const nada::dsl::StateMatrix& lhs,
                        const nada::dsl::StateMatrix& rhs) {
  if (lhs.rows.size() != rhs.rows.size()) return false;
  for (std::size_t r = 0; r < lhs.rows.size(); ++r) {
    if (lhs.rows[r].name != rhs.rows[r].name ||
        lhs.rows[r].is_vector != rhs.rows[r].is_vector ||
        lhs.rows[r].values.size() != rhs.rows[r].values.size()) {
      return false;
    }
    for (std::size_t i = 0; i < lhs.rows[r].values.size(); ++i) {
      if (!same_bits(lhs.rows[r].values[i], rhs.rows[r].values[i])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace nada;
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("DSL execution — tree-walk vs bytecode VM steps/sec", scale);

  // Check-surviving programs only: these are the ones training replays
  // millions of times. (Flawed candidates die after one or a few runs and
  // are covered by tests/dsl_vm_test.cpp instead.)
  struct Sample {
    std::string label;
    dsl::StateProgram program;
    const dsl::BindingCatalog* catalog;
  };
  std::vector<Sample> samples;
  samples.push_back({"pensieve_state_source",
                     dsl::StateProgram::compile(dsl::pensieve_state_source()),
                     &env::abr_catalog()});
  const auto sample_stream = [&](const gen::StateSpace& space,
                                 const dsl::BindingCatalog& catalog,
                                 const std::string& prefix,
                                 std::uint64_t seed, std::size_t want) {
    gen::StateGenerator generator(space, gen::gpt4_profile(),
                                  gen::PromptStrategy{}, seed);
    std::size_t taken = 0;
    while (taken < want) {
      for (const auto& candidate : generator.generate_batch(16)) {
        if (taken >= want) break;
        std::optional<dsl::StateProgram> program;
        if (!filter::compilation_check(candidate.source, catalog, &program)
                 .passed) {
          continue;
        }
        ++taken;
        samples.push_back({prefix + std::to_string(taken),
                           std::move(*program), &catalog});
      }
    }
  };
  sample_stream(gen::abr_state_space(), env::abr_catalog(), "abr_gen_",
                0x5eedULL, 4);
  sample_stream(gen::cc_state_space(), cc::cc_catalog(), "cc_gen_",
                0xccc5ULL, 4);

  // Cycled observation set per domain: one canned + fuzzed, so timings
  // cover the branchy parts of real inputs rather than one hot row.
  const auto make_obs = [](const dsl::BindingCatalog& catalog) {
    std::vector<dsl::Bindings> obs;
    obs.push_back(catalog.canned());
    util::Rng rng(0xb0b5ULL);
    for (int i = 0; i < 15; ++i) obs.push_back(catalog.fuzz(rng));
    return obs;
  };
  const std::vector<dsl::Bindings> abr_obs = make_obs(env::abr_catalog());
  const std::vector<dsl::Bindings> cc_obs = make_obs(cc::cc_catalog());

  const std::size_t steps = scale.epoch_count(200000, 4000);
  util::TextTable table("State-program execution (steps/sec, higher is "
                        "better; " +
                        std::to_string(steps) + " steps per engine)");
  table.set_header(
      {"program", "tree steps/s", "vm steps/s", "speedup", "bit-identical"});

  bool all_identical = true;
  double pensieve_speedup = 0.0;
  for (const Sample& sample : samples) {
    const auto& obs =
        sample.catalog == &env::abr_catalog() ? abr_obs : cc_obs;

    // Identity first (over every observation), then the timed loops.
    dsl::Vm vm;
    bool identical = true;
    for (const auto& o : obs) {
      const dsl::StateMatrix tree =
          test::run_program(sample.program.program(), o);
      if (!matrices_identical(tree, vm.run(sample.program.code(), o))) {
        identical = false;
      }
    }

    bench::Stopwatch tree_timer;
    double tree_sink = 0.0;
    for (std::size_t i = 0; i < steps; ++i) {
      const dsl::StateMatrix matrix =
          test::run_program(sample.program.program(), obs[i % obs.size()]);
      tree_sink += matrix.rows[0].values[0];
    }
    const double tree_s = tree_timer.seconds();

    bench::Stopwatch vm_timer;
    double vm_sink = 0.0;
    for (std::size_t i = 0; i < steps; ++i) {
      const dsl::StateMatrix& matrix =
          vm.run(sample.program.code(), obs[i % obs.size()]);
      vm_sink += matrix.rows[0].values[0];
    }
    const double vm_s = vm_timer.seconds();
    if (!same_bits(tree_sink, vm_sink)) identical = false;

    const double tree_rate = static_cast<double>(steps) / std::max(tree_s, 1e-9);
    const double vm_rate = static_cast<double>(steps) / std::max(vm_s, 1e-9);
    const double speedup = vm_rate / tree_rate;
    if (sample.label == "pensieve_state_source") pensieve_speedup = speedup;
    if (!identical) {
      all_identical = false;
      std::cout << "ERROR: tree/VM outputs diverged for " << sample.label
                << "\n";
    }
    table.add_row_mixed({sample.label},
                        {tree_rate, vm_rate, speedup, identical ? 1.0 : 0.0},
                        2);
  }

  table.print(std::cout);
  bench::save_csv("dsl_exec.csv", table);
  std::cout << "pensieve speedup: " << pensieve_speedup
            << "x (target: >= 3x)\n";
  if (!all_identical) return 1;
  return 0;
}
