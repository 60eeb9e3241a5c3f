#include "search/types.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nada::search {

void validate_config(const SearchConfig& config) {
  if (config.num_candidates == 0) {
    throw std::invalid_argument(
        "SearchConfig: num_candidates must be >= 1 (got 0)");
  }
  if (config.full_train_top == 0) {
    throw std::invalid_argument(
        "SearchConfig: full_train_top must be >= 1 (got 0)");
  }
  if (config.full_train_top > config.num_candidates) {
    throw std::invalid_argument(
        "SearchConfig: full_train_top (" +
        std::to_string(config.full_train_top) +
        ") exceeds num_candidates (" +
        std::to_string(config.num_candidates) +
        "): cannot fully train more designs than the stream holds");
  }
  if (config.seeds == 0) {
    throw std::invalid_argument(
        "SearchConfig: seeds must be >= 1 (got 0); the paper's protocol "
        "trains each survivor across independent seeds");
  }
  if (config.early_epochs == 0) {
    throw std::invalid_argument(
        "SearchConfig: early_epochs must be >= 1 (got 0); the probe "
        "stage needs a non-empty reward window");
  }
}

nn::ArchSpec scaled_arch(const util::ScaleConfig& scale) {
  auto scaled_width = [&scale](std::size_t w) {
    return std::max<std::size_t>(
        static_cast<std::size_t>(std::lround(w * scale.model)), 8);
  };
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = scaled_width(arch.conv_filters);
  arch.rnn_hidden = scaled_width(arch.rnn_hidden);
  arch.scalar_hidden = scaled_width(arch.scalar_hidden);
  arch.merge_hidden = scaled_width(arch.merge_hidden);
  return arch;
}

SearchConfig scaled_config(trace::Environment env,
                           const util::ScaleConfig& scale) {
  const trace::DatasetSpec spec = trace::paper_spec(env);
  SearchConfig config;
  config.num_candidates = scale.gen_count(3000);
  config.seeds = scale.seed_count(5);
  config.train.epochs = scale.epoch_count(spec.train_epochs, 120);
  // Keep roughly the paper's checkpoints-per-run ratio (~80 for FCC/4G/5G,
  // 40 for Starlink) but never fewer than 10 checkpoints.
  const std::size_t paper_checkpoints =
      std::max<std::size_t>(spec.train_epochs / spec.test_interval, 10);
  config.train.test_interval = std::max<std::size_t>(
      config.train.epochs / std::min<std::size_t>(paper_checkpoints, 40), 1);
  config.train.max_eval_traces = 12;
  // First-quarter probe window (the paper watches the first 10k of 40k),
  // capped so probing the many pre-check survivors stays cheaper than fully
  // training the few selected ones.
  config.early_epochs = std::clamp<std::size_t>(config.train.epochs / 4, 20,
                                                400);
  config.full_train_top = 6;
  // Model scale: the paper's 128-wide towers shrink for bench runtime.
  config.baseline_arch = scaled_arch(scale);
  return config;
}

}  // namespace nada::search
