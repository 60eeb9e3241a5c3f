// Experiment scaling. The paper trains thousands of designs for tens of
// thousands of epochs; the benches here must regenerate every table and
// figure on one machine. ScaleConfig shrinks candidate counts, epoch
// budgets, seeds, and dataset sizes by multiplicative factors read from
// environment variables. Setting every factor to 1.0 reproduces the
// paper-scale workload.
#pragma once

#include <cstddef>
#include <string>

namespace nada::util {

struct ScaleConfig {
  /// Multiplier on generated-candidate counts (paper: 3,000 per profile).
  double gen = 1.0;
  /// Multiplier on training-epoch budgets (paper: 4,000-40,000).
  double epochs = 1.0;
  /// Multiplier on seeds per design (paper: 5 sessions).
  double seeds = 1.0;
  /// Multiplier on trace-dataset sizes (paper: Table 1 counts).
  double traces = 1.0;
  /// Multiplier on NN tower widths (paper: 128-wide Pensieve towers).
  double model = 1.0;

  /// Reads NADA_SCALE_GEN / NADA_SCALE_EPOCHS / NADA_SCALE_SEEDS /
  /// NADA_SCALE_TRACES / NADA_SCALE_MODEL, falling back to bench-friendly defaults tuned so a
  /// full `for b in build/bench/*; do $b; done` finishes in minutes.
  /// Throws std::runtime_error when a variable is set to anything that is
  /// not a positive finite number — including unparseable text (which
  /// would otherwise silently run the workload at the default size).
  static ScaleConfig from_env();

  /// Applies a factor with a floor of `min_value`.
  [[nodiscard]] static std::size_t apply(std::size_t paper_value,
                                         double factor,
                                         std::size_t min_value = 1);

  [[nodiscard]] std::size_t gen_count(std::size_t paper_value,
                                      std::size_t min_value = 8) const {
    return apply(paper_value, gen, min_value);
  }
  [[nodiscard]] std::size_t epoch_count(std::size_t paper_value,
                                        std::size_t min_value = 20) const {
    return apply(paper_value, epochs, min_value);
  }
  [[nodiscard]] std::size_t seed_count(std::size_t paper_value,
                                       std::size_t min_value = 1) const {
    return apply(paper_value, seeds, min_value);
  }

  [[nodiscard]] std::string describe() const;
};

}  // namespace nada::util
