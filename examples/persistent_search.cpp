// Persistent search through the composable search API.
//
//   1. Open (or create) a content-addressed store for this funnel config.
//   2. Run a state search as a search::SearchJob, stepping stage by stage
//      with a StreamObserver printing live funnel events.
//   3. Run it again: everything is served from cache, nothing retrains.
//   4. Kill-and-resume: SearchJob::resume() continues from the journal.
//
// Run it twice to see the cache carry across processes:
//   ./build/examples/persistent_search
//   ./build/examples/persistent_search   # all cache hits
// The journal lands under $NADA_STORE_DIR (default ./nada_store).
#include <iostream>
#include <optional>

#include "env/abr_domain.h"
#include "examples/example_common.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/observer.h"
#include "search/search_job.h"
#include "trace/generator.h"
#include "util/thread_pool.h"
#include "video/video.h"

int main() {
  using namespace nada;

  // --- a small funnel over synthetic 4G traces -----------------------------
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.05, 21);
  const video::Video video = video::make_test_video(video::youtube_ladder(),
                                                    42);
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool;

  search::SearchConfig config =
      examples::demo_funnel_config(/*candidates=*/30, /*early_epochs=*/8,
                                   /*full_train_top=*/3, /*seeds=*/2,
                                   /*epochs=*/24, /*test_interval=*/8,
                                   /*max_eval_traces=*/4);
  config.baseline_arch = examples::small_pensieve_arch(8, 0, 8, 16);

  // --- 1. the store, scoped to (environment, funnel-config digest) ---------
  const store::StoreScope scope = search::store_scope(domain, config, 1234);
  const auto cache = examples::open_default_store(scope);

  // --- 2./3. the search, one observable stage at a time --------------------
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  search::StateCandidateSource source(generator);
  std::optional<rl::SessionResult> baseline;  // trained once, shared below
  // Optional sinks via NADA_METRICS_OUT / NADA_TRACE_OUT / NADA_STATUS_OUT
  // (pure readout — attach them all and the results stay bit-identical).
  auto sinks = examples::env_sinks("persistent_search", config.num_candidates);
  search::JobOptions options;
  options.store = cache.get();
  options.pool = &pool;
  options.baseline_cache = &baseline;
  options.metrics = sinks.registry.get();
  search::SearchJob job(domain, config, 1234, source,
                        search::FixedDesign{nullptr, &config.baseline_arch},
                        options);
  search::StreamObserver observer(std::cout, /*candidate_events=*/false);
  job.add_observer(&observer);
  sinks.attach(job);
  while (job.next_stage()) {
    // next_stage() runs exactly one funnel stage; a service would pump
    // other work (or report progress) between stages here.
  }
  const search::SearchResult result = job.result();
  examples::print_funnel_summary(result);

  // --- 4. resuming an interrupted run: same stream, fresh job --------------
  // If the previous process died mid-funnel, the journal holds whatever
  // stages completed; resume() replays the generator stream and only
  // executes the missing work.
  search::SearchJob resume_job(
      domain, config, 1234, source,
      search::FixedDesign{nullptr, &config.baseline_arch}, options);
  const search::SearchResult resumed = resume_job.resume();
  std::cout << "resume: " << resumed.n_probes_run << " probes and "
            << resumed.n_full_trains_run
            << " full trainings executed (expected 0 and 0: the run above "
               "checkpointed every stage)\n";
  sinks.finish();
  return 0;
}
