// Isolated replays of single layers on a workload's own inputs, run by the
// traced run after its search has finished. Each layer is timed from
// outside, around calls into its public functions.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "env/domain.h"
#include "search/candidate.h"
#include "search/types.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace nada::bench {

struct LayerInputs {
  const env::TaskDomain* domain = nullptr;
  search::CandidateSource* source = nullptr;  ///< rewound before use
  search::FixedDesign fixed;
  const search::SearchConfig* config = nullptr;
  std::uint64_t job_seed = 0;
  util::ThreadPool* pool = nullptr;  ///< the run's pool, for the parallel replay
};

/// Replays the gen, filter, dsl, env, nn and rl layers; adds gen.*,
/// filter.*, dsl.run_us, env.step_us, nn.infer_us and the rl.probe_*
/// timings to `out`, with one span per layer under `parent`.
void replay_layers(const LayerInputs& in, SpanRecorder& spans, int parent,
                   std::map<std::string, double>& out);

}  // namespace nada::bench
