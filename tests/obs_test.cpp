// The observability layer's contracts:
//
//   * MetricsRegistry: stable instrument handles, correct counter/gauge/
//     histogram arithmetic, deterministic JSON snapshots,
//   * ScopedTimer: records wall-clock into a histogram, free when null,
//   * util::format_duration: one human-readable formatter across scales
//     (the StreamObserver "1.2e-05s" fix and the status snapshots share it),
//   * MetricsObserver: its counters agree exactly with a RecordingObserver
//     on the same pooled job, batch and streaming — every candidate event
//     folded, none dropped,
//   * the training engine's rl.probe_* metrics count probe tasks only:
//     one per probe the job ran, none for the baseline or full training,
//   * the generate stage's pull metrics: a pooled streaming job observes
//     the pull and the stepping thread's wait for it once per window, even
//     though the pull runs one window ahead on the job's puller thread,
//   * TraceSink: one valid JSONL line per dispatched event, monotone seq,
//   * StatusWriter: atomic snapshots with the documented schema, plus the
//     driver-side read/aggregate path,
//   * THE invariant: a streaming, store-backed search split over three
//     fingerprint-range workers with metrics + trace + status sinks
//     attached produces bit-identical rankings and journal record sets to
//     the same search run silent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "env/abr_domain.h"
#include "gen/state_gen.h"
#include "obs/metrics.h"
#include "obs/metrics_observer.h"
#include "obs/scoped_timer.h"
#include "obs/status.h"
#include "obs/trace_sink.h"
#include "search/candidate.h"
#include "search/observer.h"
#include "search/search_job.h"
#include "search/shard_runner.h"
#include "store/shard.h"
#include "trace/generator.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "video/video.h"

namespace nada::obs {
namespace {

std::string fresh_path(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "nada_obs_" + tag;
  std::remove(path.c_str());
  return path;
}

// ---- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, InstrumentsAccumulateAndHandlesAreStable) {
  MetricsRegistry registry;
  Counter& hits = registry.counter("store.lookup_hits");
  hits.add();
  hits.add(4);
  EXPECT_EQ(registry.counter("store.lookup_hits").value(), 5u);
  EXPECT_EQ(&registry.counter("store.lookup_hits"), &hits);

  registry.gauge("search.rate.cache_hit").set(0.25);
  EXPECT_DOUBLE_EQ(registry.gauge("search.rate.cache_hit").value(), 0.25);

  const double bounds[] = {1.0, 10.0};
  Histogram& h = registry.histogram("custom.seconds", bounds);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  // NaN observations are dropped, not propagated into sum/min/max.
  h.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 3u);
}

TEST(MetricsRegistry, SnapshotShapeAndDeterminism) {
  MetricsRegistry registry;
  registry.counter("b.counter").add(2);
  registry.counter("a.counter").add(1);
  registry.gauge("g").set(1.5);
  registry.histogram("h").observe(0.002);

  const util::JsonValue snap = registry.snapshot();
  ASSERT_EQ(snap.type(), util::JsonValue::Type::kObject);
  EXPECT_EQ(snap.get("counters").get("a.counter").as_number(), 1.0);
  EXPECT_EQ(snap.get("counters").get("b.counter").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(snap.get("gauges").get("g").as_number(), 1.5);
  const util::JsonValue& hist = snap.get("histograms").get("h");
  EXPECT_EQ(hist.get("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist.get("sum").as_number(), 0.002);
  ASSERT_GT(hist.get("buckets").size(), 0u);
  // Last bucket is the +inf overflow, encoded as the string "inf".
  const util::JsonValue& last =
      hist.get("buckets").at(hist.get("buckets").size() - 1);
  EXPECT_EQ(last.get("le").as_string(), "inf");

  // Equal state dumps to equal bytes (sorted keys), and the dump parses.
  EXPECT_EQ(snap.dump(), registry.snapshot().dump());
  EXPECT_NO_THROW(util::JsonValue::parse(snap.dump()));
}

TEST(ScopedTimer, RecordsIntoHistogramAndIsNullSafe) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("t.seconds");
  {
    ScopedTimer timer(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);

  ScopedTimer explicit_stop(&h);
  const double first = explicit_stop.stop();
  EXPECT_GE(first, 0.0);
  explicit_stop.stop();     // idempotent: no second observation
  EXPECT_EQ(h.count(), 2u);

  ScopedTimer noop(nullptr);  // must not crash on scope exit
  EXPECT_EQ(maybe_histogram(nullptr, "x"), nullptr);
  EXPECT_EQ(maybe_counter(nullptr, "x"), nullptr);
}

TEST(FormatDuration, HumanReadableAcrossScales) {
  EXPECT_EQ(util::format_duration(1.2e-05), "0.012ms");  // not "1.2e-05s"
  EXPECT_EQ(util::format_duration(0.0234), "23.4ms");
  EXPECT_EQ(util::format_duration(1.53), "1.53s");
  EXPECT_EQ(util::format_duration(125.0), "2m05s");
  EXPECT_EQ(util::format_duration(3720.0), "1h02m");
  EXPECT_EQ(util::format_duration(std::nan("")), "nan");
}

// ---- search fixtures --------------------------------------------------------

search::SearchConfig fast_config(std::size_t window) {
  search::SearchConfig config;
  config.num_candidates = 24;
  config.early_epochs = 4;
  config.full_train_top = 2;
  config.seeds = 1;
  config.train.epochs = 8;
  config.train.test_interval = 4;
  config.train.max_eval_traces = 2;
  config.window_size = window;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = 8;
  arch.scalar_hidden = 8;
  arch.merge_hidden = 16;
  config.baseline_arch = arch;
  return config;
}

struct Fixture {
  trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.05, 21);
  video::Video video = video::make_test_video(video::youtube_ladder(), 42);
  env::AbrDomain domain{dataset, video};
  util::ThreadPool pool{8};
};

/// Runs one state search with the given observers attached (store-less).
search::SearchResult run_observed(Fixture& fx,
                                  const search::SearchConfig& config,
                                  const std::vector<search::Observer*>& obs,
                                  MetricsRegistry* metrics = nullptr) {
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  search::StateCandidateSource source(generator);
  search::JobOptions options;
  options.pool = &fx.pool;
  options.metrics = metrics;
  search::SearchJob job(fx.domain, config, 1234, source,
                        search::FixedDesign{nullptr, &config.baseline_arch},
                        options);
  for (search::Observer* o : obs) job.add_observer(o);
  return job.run_to_completion();
}

std::uint64_t counter_value(MetricsRegistry& registry,
                            const std::string& name) {
  return registry.counter(name).value();
}

// ---- MetricsObserver vs RecordingObserver ----------------------------------

/// The dispatch-integrity contract on a pooled job: the probe blocks run
/// on ThreadPool threads, the job announces their results, and the metrics
/// fold sees every single event — counts agree exactly with the recording
/// observer, batch and streaming.
TEST(MetricsObserver, AgreesWithRecordingOnPooledProbes) {
  Fixture fx;
  for (const std::size_t window : {std::size_t{0}, std::size_t{5}}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    const search::SearchConfig config = fast_config(window);

    MetricsRegistry registry;
    MetricsObserver metrics(registry);
    search::RecordingObserver recording;
    const auto result = run_observed(fx, config, {&metrics, &recording});

    using E = search::CandidateEventType;
    EXPECT_EQ(result.n_total, config.num_candidates);
    // None dropped: every candidate entered exactly once...
    EXPECT_EQ(recording.count(E::kEntered), config.num_candidates);
    // ...and the metrics fold saw the identical event multiset.
    EXPECT_EQ(counter_value(registry, "search.candidates.entered"),
              recording.count(E::kEntered));
    EXPECT_EQ(counter_value(registry, "search.candidates.failed"),
              recording.count(E::kFailed));
    EXPECT_EQ(counter_value(registry, "search.candidates.probed"),
              recording.count(E::kProbed));
    EXPECT_EQ(counter_value(registry, "search.candidates.early_stopped"),
              recording.count(E::kEarlyStopped));
    EXPECT_EQ(counter_value(registry, "search.candidates.trained"),
              recording.count(E::kTrained));
    EXPECT_EQ(counter_value(registry, "search.candidates.probed"),
              result.n_probes_run);

    // Stage executions line up with the recorded stage events (streaming
    // cycles generate/precheck/probe once per window).
    std::size_t probe_finishes = 0;
    for (const auto& event : recording.finished) {
      if (event.stage == search::StageKind::kProbe) ++probe_finishes;
    }
    EXPECT_EQ(counter_value(registry, "search.stage.probe.runs"),
              probe_finishes);
    EXPECT_EQ(registry.histogram("search.stage.probe.seconds").count(),
              probe_finishes);

    EXPECT_EQ(counter_value(registry, "search.windows.completed"),
              recording.windows.size());
    EXPECT_DOUBLE_EQ(registry.gauge("search.progress.stream_position").value(),
                     static_cast<double>(config.num_candidates));
    if (window != 0) {
      EXPECT_GT(recording.windows.size(), 1u);
    }
  }
}

// ---- probe metrics ----------------------------------------------------------

/// Every training runs on the one engine, but only the probe stage hands
/// it the registry: rl.probe_* count exactly one task per probe run, and
/// the baseline's and the top-K's full training add nothing. nada_bench's
/// rl.probe_pool_util divides the histogram's sum by probe stage time, so
/// this is what keeps it meaning "probe tasks only".
TEST(ProbeMetrics, CountOneTaskPerProbeRunAndNoneForFullTraining) {
  Fixture fx;
  search::SearchConfig config = fast_config(0);
  config.seeds = 2;
  MetricsRegistry registry;
  const auto result = run_observed(fx, config, {}, &registry);
  ASSERT_GT(result.n_probes_run, 1u);
  ASSERT_GT(result.n_full_trains_run, 0u);
  EXPECT_FALSE(result.original.failed);
  EXPECT_EQ(counter_value(registry, "rl.probe_blocks"), result.n_probes_run);
  EXPECT_EQ(counter_value(registry, "rl.probe_block_candidates"),
            result.n_probes_run);
  EXPECT_EQ(registry.histogram("rl.probe_block.seconds").count(),
            result.n_probes_run);
  // The phase split: one observation per task in every phase, and the
  // phases never add up to more than the task's own wall-clock.
  double phase_sum = 0.0;
  for (const char* phase : {"dsl", "forward", "sample", "env", "backward",
                            "optimizer", "sync"}) {
    const auto& h = registry.histogram(std::string("rl.probe.phase.") +
                                       phase + ".seconds");
    EXPECT_EQ(h.count(), result.n_probes_run) << phase;
    EXPECT_GT(h.sum(), 0.0) << phase;
    phase_sum += h.sum();
  }
  EXPECT_LE(phase_sum, registry.histogram("rl.probe_block.seconds").sum());
}

// ---- TraceSink --------------------------------------------------------------

TEST(TraceSink, OneValidJsonLinePerEvent) {
  Fixture fx;
  const std::string path = fresh_path("trace.jsonl");
  search::RecordingObserver recording;
  std::uint64_t lines_written = 0;
  {
    TraceSink trace(path);
    run_observed(fx, fast_config(5), {&trace, &recording});
    lines_written = trace.lines_written();
  }

  std::vector<std::string> lines;
  std::istringstream in(util::read_file(path));
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  const std::size_t dispatched =
      recording.started.size() + recording.finished.size() +
      recording.candidates.size() + recording.window_starts.size() +
      recording.windows.size();
  EXPECT_EQ(lines.size(), dispatched);
  EXPECT_EQ(lines_written, dispatched);

  double prev_seq = -1.0;
  for (const auto& line : lines) {
    util::JsonValue doc;
    ASSERT_NO_THROW(doc = util::JsonValue::parse(line)) << line;
    ASSERT_TRUE(doc.has("event")) << line;
    ASSERT_TRUE(doc.has("seq")) << line;
    ASSERT_TRUE(doc.has("ts_unix")) << line;
    EXPECT_GT(doc.get("seq").as_number(), prev_seq);
    prev_seq = doc.get("seq").as_number();
    const std::string& event = doc.get("event").as_string();
    if (event == "candidate") {
      EXPECT_TRUE(doc.has("type"));
      EXPECT_TRUE(doc.has("index"));
      EXPECT_TRUE(doc.has("id"));
    } else if (event == "stage" || event == "window") {
      EXPECT_TRUE(doc.has("seconds"));
    }
  }
}

// ---- StatusWriter -----------------------------------------------------------

TEST(StatusWriter, SnapshotSchemaRateLimitAndFinish) {
  const std::string path = fresh_path("status.json");
  StatusWriter writer(
      StatusConfig{path, "single", /*total_candidates=*/10,
                   /*min_interval_seconds=*/3600.0});
  writer.on_stage_start(search::StageKind::kGenerate);
  for (std::size_t i = 0; i < 5; ++i) {
    writer.on_candidate({search::CandidateEventType::kEntered,
                         search::StageKind::kGenerate, i, "cand", ""});
  }
  writer.on_stage_finish({search::StageKind::kGenerate, 0.25});
  writer.on_window_start(0, 0);
  writer.on_window_finish({0, 0, 5, 2, 0.5});

  // Mid-run snapshot: progress-bearing fields and an ETA.
  auto running = read_status(path);
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(running->state, "running");
  EXPECT_EQ(running->stream_position, 5u);
  EXPECT_TRUE(running->raw.has("eta_seconds"));
  EXPECT_TRUE(running->raw.has("pid"));

  writer.finish();
  // Rate-limited: ctor + 2 stage + 2 window boundaries + finish force a
  // write each; the 5 candidate events all fall inside the interval.
  EXPECT_EQ(writer.writes(), 6u);
  writer.finish();  // idempotent
  EXPECT_EQ(writer.writes(), 6u);

  const auto snapshot = read_status(path);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_TRUE(snapshot->done());
  EXPECT_EQ(snapshot->label, "single");
  EXPECT_EQ(snapshot->stage, "generate");
  EXPECT_EQ(snapshot->total_candidates, 10u);
  EXPECT_EQ(snapshot->counter("entered"), 5u);
  EXPECT_EQ(snapshot->counter("windows"), 1u);
  EXPECT_GT(snapshot->heartbeat_unix, 0.0);
  // The human-readable elapsed uses the shared formatter (no raw doubles).
  EXPECT_TRUE(snapshot->raw.has("elapsed"));
  EXPECT_DOUBLE_EQ(
      snapshot->raw.get("stage_seconds").get("generate").as_number(), 0.25);
  EXPECT_DOUBLE_EQ(snapshot->raw.get("stage_runs").get("generate").as_number(),
                   1.0);
}

TEST(StatusWriter, MissingAndCorruptFilesReadAsAbsent) {
  EXPECT_FALSE(read_status(fresh_path("nonexistent.json")).has_value());
  const std::string path = fresh_path("corrupt.json");
  util::write_file_atomic(path, "{\"label\": torn-midwri");
  EXPECT_FALSE(read_status(path).has_value());
}

TEST(StatusAggregate, MergesReportingWorkersAndCountsMissing) {
  const std::string path_a = fresh_path("agg_a.json");
  const std::string path_b = fresh_path("agg_b.json");
  {
    StatusWriter a(StatusConfig{path_a, "worker-0/3", 30});
    a.on_candidate({search::CandidateEventType::kEntered,
                    search::StageKind::kGenerate, 9, "x", ""});
    a.finish();
    StatusWriter b(StatusConfig{path_b, "worker-1/3", 30});
    b.on_candidate({search::CandidateEventType::kEntered,
                    search::StageKind::kGenerate, 19, "y", ""});
    b.on_candidate({search::CandidateEventType::kFailed,
                    search::StageKind::kPrecheck, 19, "y", "boom"});
    b.finish();
  }
  std::vector<std::optional<StatusSnapshot>> workers;
  workers.push_back(read_status(path_a));
  workers.push_back(std::nullopt);  // worker 1 never reported
  workers.push_back(read_status(path_b));
  ASSERT_TRUE(workers[0].has_value());
  ASSERT_TRUE(workers[2].has_value());

  const util::JsonValue doc = aggregate_status(workers, unix_now());
  EXPECT_EQ(doc.get("kind").as_string(), "aggregate");
  EXPECT_EQ(doc.get("n_workers").as_number(), 3.0);
  EXPECT_EQ(doc.get("n_reporting").as_number(), 2.0);
  EXPECT_EQ(doc.get("n_done").as_number(), 2.0);
  EXPECT_EQ(doc.get("stream_position_total").as_number(), 30.0);
  EXPECT_EQ(doc.get("counters").get("entered").as_number(), 2.0);
  EXPECT_EQ(doc.get("counters").get("failed").as_number(), 1.0);
  EXPECT_GE(doc.get("heartbeat_age_max_seconds").as_number(), 0.0);
  ASSERT_EQ(doc.get("workers").size(), 3u);
  EXPECT_TRUE(doc.get("workers").at(1).is_null());
  EXPECT_EQ(doc.get("workers").at(2).get("label").as_string(), "worker-1/3");
  EXPECT_NO_THROW(util::JsonValue::parse(doc.dump()));
}

// ---- the pure-readout invariant, end to end --------------------------------

std::vector<std::string> sorted_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(util::read_file(path));
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

using TrainedRow =
    std::tuple<std::size_t, std::string, double, std::vector<double>>;
std::vector<TrainedRow> trained_rows(const search::SearchResult& result) {
  std::vector<TrainedRow> rows;
  for (const auto& outcome : result.outcomes) {
    if (!outcome.fully_trained) continue;
    rows.emplace_back(outcome.stream_index, outcome.id, outcome.test_score,
                      outcome.early_rewards);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

constexpr std::size_t kRanges = 3;

/// The range workers' journals: `<store_dir>/range-<i>.nsb`.
std::vector<std::string> range_journals(const std::string& store_dir) {
  std::vector<std::string> journals;
  for (std::size_t i = 0; i < kRanges; ++i) {
    journals.push_back(store_dir + "/range-" + std::to_string(i) + ".nsb");
  }
  return journals;
}

/// Removes any journals/snapshots a previous test invocation left in the
/// store dir (a stale journal would serve the whole run from cache and
/// defeat the "sinks saw real work" assertions).
void clean_store_dir(const search::ShardRunner& runner,
                     const std::string& store_dir) {
  for (const auto& journal : range_journals(store_dir)) {
    std::remove(journal.c_str());
    std::remove((journal + ".status.json").c_str());
  }
  std::remove(runner.merged_store_path().c_str());
  std::remove(runner.merged_status_path().c_str());
}

/// One streaming search over a fresh store dir: run_range passes over the
/// ShardPlan(kRanges) ranges, then the driver's merge+rank, all sinks from
/// `observers` attached to every job.
search::SearchResult run_sharded(const search::SearchConfig& config,
                                 search::ShardRunner& runner,
                                 const std::string& store_dir,
                                 const std::vector<search::Observer*>& obs) {
  const store::ShardPlan plan(kRanges);
  const auto journals = range_journals(store_dir);
  for (std::size_t i = 0; i < kRanges; ++i) {
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  77);
    search::StateCandidateSource source(generator);
    runner.run_range(plan.range(i), journals[i], source,
                     search::FixedDesign{nullptr, &config.baseline_arch},
                     obs);
  }
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  search::StateCandidateSource source(generator);
  return runner.merge_and_rank_paths(
      journals, source, search::FixedDesign{nullptr, &config.baseline_arch},
      nullptr, obs);
}

TEST(ObservabilityEquivalence, ShardedStreamingSinksMatchSilentRun) {
  Fixture fx;
  const search::SearchConfig config = fast_config(5);

  // --- observed run: metrics + trace + per-worker status, all attached ---
  const std::string obs_dir = fresh_path("equiv_sinks");
  search::ShardRunnerConfig observed_shards;
  observed_shards.store_dir = obs_dir;
  MetricsRegistry registry;
  observed_shards.metrics = &registry;  // worker_status stays default-on
  search::ShardRunner observed_runner(fx.domain, config, 1234,
                                      observed_shards, &fx.pool);
  clean_store_dir(observed_runner, obs_dir);
  MetricsObserver metrics(registry);
  const std::string trace_path = fresh_path("equiv_trace.jsonl");
  TraceSink trace(trace_path);
  const auto observed =
      run_sharded(config, observed_runner, obs_dir, {&metrics, &trace});

  // --- silent run: no sinks anywhere, fresh directory -------------------
  const std::string silent_dir = fresh_path("equiv_silent");
  search::ShardRunnerConfig silent_shards;
  silent_shards.store_dir = silent_dir;
  silent_shards.worker_status = false;
  search::ShardRunner silent_runner(fx.domain, config, 1234, silent_shards,
                                    &fx.pool);
  clean_store_dir(silent_runner, silent_dir);
  const auto silent = run_sharded(config, silent_runner, silent_dir, {});

  // Bit-identical results: counters, rankings, and the merged journal's
  // record set.
  EXPECT_EQ(silent.n_total, observed.n_total);
  EXPECT_EQ(silent.n_fully_trained, observed.n_fully_trained);
  EXPECT_DOUBLE_EQ(silent.original_score, observed.original_score);
  ASSERT_EQ(silent.has_best(), observed.has_best());
  if (silent.has_best()) {
    EXPECT_DOUBLE_EQ(silent.best_score, observed.best_score);
    EXPECT_EQ(silent.outcomes[silent.best_index].id,
              observed.outcomes[observed.best_index].id);
  }
  EXPECT_EQ(trained_rows(silent), trained_rows(observed));
  const auto observed_journal =
      sorted_lines(observed_runner.merged_store_path());
  EXPECT_EQ(sorted_lines(silent_runner.merged_store_path()),
            observed_journal);
  EXPECT_FALSE(observed_journal.empty());

  // ...while the sinks actually captured the run. Metrics snapshot:
  EXPECT_EQ(registry.counter("search.candidates.entered").value(),
            static_cast<std::uint64_t>(config.num_candidates) * (kRanges + 1));
  EXPECT_GT(registry.counter("store.lookups").value(), 0u);
  EXPECT_GT(registry.histogram("rl.probe_block.seconds").count(), 0u);
  EXPECT_EQ(registry.histogram("rl.probe.phase.backward.seconds").count(),
            registry.histogram("rl.probe_block.seconds").count());
  EXPECT_NO_THROW(util::JsonValue::parse(registry.snapshot().dump()));
  // Trace: non-empty, every line valid JSON.
  const auto trace_lines = sorted_lines(trace_path);
  EXPECT_GT(trace_lines.size(), 0u);
  for (const auto& line : trace_lines) {
    ASSERT_NO_THROW(util::JsonValue::parse(line)) << line;
  }
  // Worker heartbeats: every range reported and finished next to its
  // journal; the aggregate folds all of them.
  std::vector<std::optional<StatusSnapshot>> statuses;
  for (const auto& journal : range_journals(obs_dir)) {
    statuses.push_back(read_status(journal + ".status.json"));
    ASSERT_TRUE(statuses.back().has_value()) << journal;
    EXPECT_TRUE(statuses.back()->done());
    EXPECT_EQ(statuses.back()->counter("entered"), config.num_candidates);
  }
  const util::JsonValue aggregate = aggregate_status(statuses, unix_now());
  EXPECT_EQ(aggregate.get("n_workers").as_number(),
            static_cast<double>(kRanges));
  EXPECT_EQ(aggregate.get("n_reporting").as_number(),
            static_cast<double>(kRanges));
  EXPECT_EQ(aggregate.get("n_done").as_number(), static_cast<double>(kRanges));
  EXPECT_NO_THROW(util::JsonValue::parse(aggregate.dump()));
  // The driver's own status file (merge pass) is there too.
  const auto driver = read_status(observed_runner.merged_status_path());
  ASSERT_TRUE(driver.has_value());
  EXPECT_EQ(driver->label, "driver");
  EXPECT_TRUE(driver->done());
}

// ---- generation metrics -----------------------------------------------------

TEST(PullMetrics, PooledStreamingJobObservesPullAndWaitOncePerWindow) {
  Fixture fx;
  const search::SearchConfig config = fast_config(5);  // windows 5,5,5,5,4
  MetricsRegistry registry;
  search::RecordingObserver recording;
  const auto observed = run_observed(fx, config, {&recording}, &registry);
  ASSERT_EQ(recording.windows.size(), 5u);
  for (const char* name : {"search.generate.pull_seconds",
                           "search.generate.pull_wait_seconds",
                           "search.generate.fingerprint_seconds"}) {
    EXPECT_EQ(registry.histogram(name).count(), recording.windows.size())
        << name;
  }
  // Pure readout: the instrumented run is the silent run.
  const auto silent = run_observed(fx, config, {});
  EXPECT_EQ(silent.n_total, observed.n_total);
  EXPECT_EQ(silent.n_probes_run, observed.n_probes_run);
  EXPECT_EQ(silent.best_index, observed.best_index);
  EXPECT_DOUBLE_EQ(silent.best_score, observed.best_score);
  EXPECT_EQ(trained_rows(silent), trained_rows(observed));
}

}  // namespace
}  // namespace nada::obs
