#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "cc/cc_domain.h"
#include "env/abr_domain.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "host_speed.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/status.h"
#include "search/candidate.h"
#include "search/search_job.h"
#include "search/shard_runner.h"
#include "store/candidate_store.h"
#include "svc/lease_log.h"
#include "svc/supervisor.h"
#include "trace.h"
#include "trace/generator.h"
#include "util/fs.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "video/video.h"

namespace nada::bench {
namespace {

// ---- workload definitions ------------------------------------------------------
// Sizes: one run takes two to three seconds on a 4-core host, so a
// 20-second measurement holds several runs.
//
// The candidate streams are fixed (one generator seed per workload) and
// --seed derives the job seed: the probe, normalization-fuzz and training
// seeds of every candidate. A seeded stream would make the cost of a run a
// property of the seed: the share of a state stream that passes the
// pre-checks varies binomially (about 7% between seeds at this size), and
// architecture probe costs are heavy-tailed (the costliest LSTM probe took
// 20x the median probe), so two seeds differ by far more than any useful
// regression bound. The fixed streams hold the work constant while the seed still
// changes every result the funnel computes.
constexpr std::uint64_t kGeneratorSeed = 77;

constexpr std::size_t kStreamCandidates = 128;
constexpr std::size_t kStreamWindow = 32;
constexpr std::size_t kCcCandidates = 96;
constexpr std::size_t kWarmCandidates = 60000;
constexpr std::size_t kWarmWindow = 256;
/// abr-state-supervised: initial sub-range leases (more than the worker
/// slots, so the queue is elastic from the start).
constexpr std::size_t kSupervisedLeases = 8;
/// Timed set-ups per CPU and run (fastest_set_up); a run reports the
/// fastest.
constexpr std::size_t kSetUpsPerCpu = 2;

const std::vector<WorkloadInfo> kWorkloads = {
    {WorkloadId::kAbrStateStream, "abr-state-stream"},
    {WorkloadId::kCcArchBatch, "cc-arch-batch"},
    {WorkloadId::kAbrStateWarm, "abr-state-warm"},
    {WorkloadId::kAbrStateSupervised, "abr-state-supervised"},
};

using Clock = std::chrono::steady_clock;

/// User + sys seconds of this process and every child it has reaped.
double process_cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
                 1e-6;
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double file_size(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path));
}

void remove_journal(const std::string& journal) {
  std::error_code ignored;
  std::filesystem::remove(journal, ignored);
  std::filesystem::remove(journal + ".idx", ignored);
}

/// Calls `set_up`, which builds a run's session and returns how long that
/// took, kSetUpsPerCpu times pinned to each CPU this thread may run on, and
/// returns the fastest time divided by the slowdown of its CPU, measured
/// right after it (host_speed.h). Some CPUs of a shared host run far slower
/// than others for minutes at a time, and a thread stays where it started,
/// so one set-up per run read one of two speeds at random. Then sets up
/// once more, unpinned, for the run to keep: threads inherit their
/// creator's CPU mask, so a pool built while pinned would crowd onto one
/// CPU.
template <class SetUp>
double fastest_set_up(SetUp&& set_up) {
  const std::vector<int> cpus = allowed_cpus();
  double fastest = std::numeric_limits<double>::infinity();
  for (std::size_t round = 0; round < kSetUpsPerCpu; ++round) {
    for (const int cpu : cpus) {
      if (!pin_thread({cpu})) throw std::runtime_error("sched_setaffinity failed");
      const double seconds = set_up();
      fastest = std::min(fastest, seconds / cpu_slowdown());
    }
  }
  if (cpus.empty() || !pin_thread(cpus)) {
    throw std::runtime_error("cannot restore this thread's CPU mask");
  }
  (void)set_up();
  return fastest;
}

// ---- the searches ---------------------------------------------------------------

/// Everything a funnel run needs besides execution resources. Pinned in
/// place: `fixed` points into `config` and `fixed_state`.
struct Search {
  Search() = default;
  Search(const Search&) = delete;
  Search& operator=(const Search&) = delete;

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
  std::uint64_t job_seed = 0;
};

nn::ArchSpec pensieve_arch(std::size_t conv, std::size_t rnn,
                           std::size_t scalar, std::size_t merge) {
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = conv;
  arch.rnn_hidden = rnn;
  arch.scalar_hidden = scalar;
  arch.merge_hidden = merge;
  return arch;
}

search::SearchConfig funnel_config(std::size_t candidates,
                                   std::size_t early_epochs,
                                   std::size_t full_train_top,
                                   std::size_t seeds, std::size_t epochs,
                                   std::size_t test_interval,
                                   std::size_t max_eval_traces) {
  search::SearchConfig config;
  config.num_candidates = candidates;
  config.early_epochs = early_epochs;
  config.full_train_top = full_train_top;
  config.seeds = seeds;
  config.train.epochs = epochs;
  config.train.test_interval = test_interval;
  config.train.max_eval_traces = max_eval_traces;
  return config;
}

/// The workload's search for `seed`. abr-state-supervised runs
/// abr-state-stream's search.
std::unique_ptr<Search> make_search(WorkloadId id, std::uint64_t seed) {
  auto s = std::make_unique<Search>();
  s->job_seed = util::mix64(seed ^ 0x6a6f625f73656564ULL);
  if (id == WorkloadId::kCcArchBatch) {
    s->dataset = trace::build_dataset(trace::Environment::k4G, 0.2, 7);
    s->cc_config.init_rate_mbps = 2.0;
    s->cc_config.steps_per_episode = 60;
    s->domain = std::make_unique<cc::CcDomain>(s->dataset, s->cc_config);
    // Every probed architecture is fully trained (full_train_top = N):
    // which few a seed would select is a draw from a heavy-tailed cost
    // distribution, while training them all makes full training half the
    // run at a cost the seed does not move.
    s->config = funnel_config(kCcCandidates, 20, kCcCandidates, 1, 10, 5, 4);
    s->config.baseline_arch = pensieve_arch(8, 8, 8, 16);
    s->arch_gen = std::make_unique<gen::ArchGenerator>(
        gen::gpt4_profile(), gen::PromptStrategy{}, kGeneratorSeed, 0.125);
    s->source = std::make_unique<search::ArchCandidateSource>(*s->arch_gen);
    s->fixed_state =
        dsl::StateProgram::compile(s->domain->baseline_state_source());
    s->fixed.state = &*s->fixed_state;
    return s;
  }
  s->dataset = trace::build_dataset(trace::Environment::k4G, 0.05, 21);
  s->video = video::make_test_video(video::youtube_ladder(), 42);
  s->domain = std::make_unique<env::AbrDomain>(s->dataset, *s->video);
  if (id == WorkloadId::kAbrStateWarm) {
    s->config = funnel_config(kWarmCandidates, 1, 2, 1, 4, 4, 2);
    s->config.baseline_arch = pensieve_arch(4, 4, 4, 8);
    s->config.window_size = kWarmWindow;
  } else {
    s->config = funnel_config(kStreamCandidates, 20, 2, 1, 24, 8, 4);
    s->config.baseline_arch = pensieve_arch(32, 32, 32, 64);
    s->config.window_size = kStreamWindow;
  }
  s->state_gen = std::make_unique<gen::StateGenerator>(
      gen::abr_state_space(), gen::gpt4_profile(), gen::PromptStrategy{},
      kGeneratorSeed);
  s->source = std::make_unique<search::StateCandidateSource>(*s->state_gen);
  s->fixed.arch = &s->config.baseline_arch;
  return s;
}

// ---- correctness digests -----------------------------------------------------------

std::string bits_hex(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return svc::hex_u64(bits);
}

store::Fingerprint outcome_fingerprint(const search::CandidateOutcome& outcome,
                                       const search::FixedDesign& fixed) {
  return search::fingerprint_of(
      outcome.arch.has_value()
          ? search::CandidateSpec::architecture(outcome.id, *outcome.arch,
                                                outcome.source)
          : search::CandidateSpec::state_program(outcome.id, outcome.source),
      fixed);
}

/// The final ranking, best first (ties by stream position, the funnel's
/// own tie-break): stream index, id, fingerprint and the bits of the test
/// score of every fully trained candidate, plus the bits of the baseline.
std::string ranking_digest(const search::SearchResult& result,
                           const search::FixedDesign& fixed) {
  std::vector<const search::CandidateOutcome*> ranked;
  for (const auto& outcome : result.outcomes) {
    if (outcome.fully_trained) ranked.push_back(&outcome);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto* a, const auto* b) {
    if (a->test_score != b->test_score) return a->test_score > b->test_score;
    return a->stream_index < b->stream_index;
  });
  std::string text = "baseline " + bits_hex(result.original_score) + "\n";
  for (const auto* outcome : ranked) {
    text += std::to_string(outcome->stream_index) + " " + outcome->id + " " +
            outcome_fingerprint(*outcome, fixed).hex() + " " +
            bits_hex(outcome->test_score) + "\n";
  }
  return store::fingerprint_text(text).hex();
}

/// The funnel counters that describe WHAT the search decided (execution
/// counters such as probes run or cache hits legitimately differ between
/// cold, warm and supervised runs of one search).
std::string counters_text(const search::SearchResult& result) {
  return "total=" + std::to_string(result.n_total) +
         " compiled=" + std::to_string(result.n_compiled) +
         " normalized=" + std::to_string(result.n_normalized) +
         " early_stopped=" + std::to_string(result.n_early_stopped) +
         " fully_trained=" + std::to_string(result.n_fully_trained);
}

/// Digest of a record set: each record canonically encoded, sorted.
std::string records_digest(const std::vector<store::OutcomeRecord>& records,
                           const store::StoreScope& scope) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const auto& record : records) {
    lines.push_back(store::CandidateStore::encode_line(record, scope));
  }
  std::sort(lines.begin(), lines.end());
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  return store::fingerprint_text(text).hex();
}

/// cc-arch-batch has no store: its record set is built from the batch
/// result's outcomes (one per stream position), first sighting per
/// fingerprint, as a store would have journaled them.
std::vector<store::OutcomeRecord> outcome_records(
    const search::SearchResult& result, const search::FixedDesign& fixed) {
  std::vector<store::OutcomeRecord> records;
  std::unordered_set<std::string> seen;
  for (const auto& o : result.outcomes) {
    store::OutcomeRecord r;
    r.fingerprint = outcome_fingerprint(o, fixed);
    if (!seen.insert(r.fingerprint.hex()).second) continue;
    r.stage = o.fully_trained  ? store::Stage::kTrained
              : o.early_probed ? store::Stage::kProbed
                               : store::Stage::kChecked;
    r.id = o.id;
    r.source = o.source;
    r.arch = o.arch;
    r.compiled = o.compiled;
    r.compile_error = o.compile_error;
    r.normalized = o.normalized;
    r.normalization_error = o.normalization_error;
    r.early_probed = o.early_probed;
    r.early_rewards = o.early_rewards;
    r.fully_trained = o.fully_trained;
    r.test_score = o.test_score;
    r.emulation_score = o.emulation_score;
    r.curve_epochs = o.curve_epochs;
    r.median_curve = o.median_curve;
    records.push_back(std::move(r));
  }
  return records;
}

// ---- tracing ---------------------------------------------------------------------

/// Records a span per funnel stage (on the stepping thread), the
/// allocations each stage made, and the rolling windows' durations
/// (generate + precheck + probe of one window). Jobs this benchmark cannot
/// step itself (ShardRunner's) report their stages through the observer
/// interface.
class StageSpans final : public search::Observer {
 public:
  StageSpans(SpanRecorder& spans, int parent) : spans_(&spans), parent_(parent) {}

  void on_stage_start(search::StageKind stage) override {
    if (stage == search::StageKind::kGenerate) windows_.push_back(0.0);
    current_ = spans_->begin(std::string("search.") + search::stage_label(stage),
                             parent_);
    allocs_at_start_ = alloc_count();
  }
  void on_stage_finish(const search::StageEvent& event) override {
    spans_->end(current_);
    const double seconds = spans_->duration(current_);
    const std::string label = search::stage_label(event.stage);
    seconds_[label] += seconds;
    allocs_[label] += alloc_count() - allocs_at_start_;
    if (event.stage <= search::StageKind::kProbe && !windows_.empty()) {
      windows_.back() += seconds;
    }
  }

  [[nodiscard]] double seconds(const std::string& label) const {
    const auto it = seconds_.find(label);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double allocs(const std::string& label) const {
    const auto it = allocs_.find(label);
    return it == allocs_.end() ? 0.0 : static_cast<double>(it->second);
  }
  [[nodiscard]] double total_seconds() const {
    double sum = 0.0;
    for (const auto& [label, s] : seconds_) sum += s;
    return sum;
  }
  [[nodiscard]] const std::vector<double>& windows() const { return windows_; }

 private:
  SpanRecorder* spans_;
  int parent_;
  int current_ = SpanRecorder::kNoParent;
  std::uint64_t allocs_at_start_ = 0;
  std::map<std::string, double> seconds_;
  std::map<std::string, std::uint64_t> allocs_;
  std::vector<double> windows_;
};

/// The search.* metrics, plus the ones derived from registry counters
/// (dsl, nn, rl) that need the stage timings.
void search_layer_metrics(const StageSpans& stages,
                          const search::SearchResult& result,
                          const search::SearchConfig& config,
                          const std::vector<store::OutcomeRecord>& records,
                          double search_s, std::size_t threads,
                          obs::MetricsRegistry& registry,
                          std::map<std::string, double>& out) {
  for (const char* stage : {"generate", "precheck", "probe", "baseline",
                            "select", "full-train", "rank"}) {
    std::string name = std::string("search.") + stage + "_s";
    std::replace(name.begin(), name.end(), '-', '_');
    out[name] = stages.seconds(stage);
  }
  out["search.stage_cover"] = ratio(stages.total_seconds(), search_s);
  out["search.window_s_p50"] = util::percentile(stages.windows(), 50.0);
  out["search.window_s_p90"] = util::percentile(stages.windows(), 90.0);
  const double n = static_cast<double>(result.n_total);
  const double probes = static_cast<double>(result.n_probes_run);
  const double probe_s = stages.seconds("probe");
  out["search.probes_per_s"] = ratio(probes, probe_s);
  std::size_t distinct_checked = 0;
  for (const auto& record : records) {
    distinct_checked += record.compiled && record.normalized ? 1 : 0;
  }
  out["search.reprobe_ratio"] =
      ratio(probes, static_cast<double>(distinct_checked));
  out["search.generate.allocs_per_cand"] = ratio(stages.allocs("generate"), n);
  out["search.precheck.allocs_per_cand"] = ratio(stages.allocs("precheck"), n);
  out["search.probe.allocs_per_probe"] = ratio(stages.allocs("probe"), probes);

  out["dsl.cost_units_per_probe"] = ratio(
      static_cast<double>(registry.counter("dsl.exec.cost_units").value()),
      probes);
  out["nn.flops_per_probe"] = ratio(
      static_cast<double>(registry.counter("nn.matmul.flops").value()), probes);
  out["rl.probe_pool_util"] =
      ratio(registry.histogram("rl.probe_block.seconds").sum(),
            probe_s * static_cast<double>(threads));
  out["rl.full_train_s_per_session"] =
      ratio(stages.seconds("full-train"),
            static_cast<double>(result.n_full_trains_run * config.seeds));
}

void store_layer_metrics(obs::MetricsRegistry& registry, double open_s,
                         double journal_bytes, double n,
                         std::map<std::string, double>& out) {
  const obs::Histogram& lookup = registry.histogram("store.lookup.seconds");
  const obs::Histogram& append = registry.histogram("store.append.seconds");
  const double lookups = static_cast<double>(registry.counter("store.lookups").value());
  out["store.open_s"] = open_s;
  out["store.lookup_us_mean"] =
      ratio(lookup.sum() * 1e6, static_cast<double>(lookup.count()));
  out["store.append_us_mean"] =
      ratio(append.sum() * 1e6, static_cast<double>(append.count()));
  out["store.lookups_per_cand"] = ratio(lookups, n);
  out["store.appends_per_cand"] = ratio(
      static_cast<double>(registry.counter("store.appends_accepted").value()), n);
  out["store.hit_ratio"] = ratio(
      static_cast<double>(registry.counter("store.lookup_hits").value()), lookups);
  out["store.journal_bytes_per_cand"] = ratio(journal_bytes, n);
}

constexpr const char* kSvcMetrics[] = {
    "svc.supervise_s",  "svc.merge_rank_s",    "svc.spawned",
    "svc.lease_s_p50",  "svc.lease_s_max",     "svc.straggler_ratio",
    "svc.worker_util",  "svc.replay_s_per_worker"};

/// The isolated layer replays, then the trace file.
void finish_trace(const RunContext& ctx, const Search& s,
                  util::ThreadPool& pool, SpanRecorder& spans, int run_span,
                  std::map<std::string, double>& layers) {
  const int layers_span = spans.begin("layers", run_span);
  replay_layers(LayerInputs{s.domain.get(), s.source.get(), s.fixed,
                            &s.config, s.job_seed, &pool},
                spans, layers_span, layers);
  spans.end(layers_span);
  spans.end(run_span);

  util::JsonValue doc = spans.to_json();
  doc.set("seed", util::JsonValue::number(static_cast<double>(ctx.seed)));
  util::JsonValue metrics = util::JsonValue::object();
  for (const auto& [name, value] : layers) {
    metrics.set(name, util::JsonValue::number(value));
  }
  doc.set("layers", std::move(metrics));
  util::ensure_directories(util::parent_directory(ctx.trace_path));
  util::write_file_atomic(ctx.trace_path, doc.dump() + "\n");
}

// ---- the runs ------------------------------------------------------------------------

/// What a run builds before its first stage.
struct Session {
  std::unique_ptr<Search> search;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<store::CandidateStore> store;
  std::unique_ptr<search::SearchJob> job;
  double open_s = 0.0;  ///< CandidateStore constructor
};

std::unique_ptr<Session> set_up(WorkloadId id, const RunContext& ctx,
                                const std::string& journal,
                                obs::MetricsRegistry* metrics) {
  auto session = std::make_unique<Session>();
  session->search = make_search(id, ctx.seed);
  const Search& s = *session->search;
  session->pool = std::make_unique<util::ThreadPool>(ctx.threads);
  if (!journal.empty()) {
    const auto open_start = Clock::now();
    session->store = std::make_unique<store::CandidateStore>(
        journal, search::store_scope(*s.domain, s.config, s.job_seed));
    session->open_s = seconds_since(open_start);
  }
  search::JobOptions options;
  options.store = session->store.get();
  options.pool = session->pool.get();
  options.metrics = metrics;
  session->job = std::make_unique<search::SearchJob>(
      *s.domain, s.config, s.job_seed, *s.source, s.fixed, options);
  return session;
}

/// abr-state-stream, cc-arch-batch and abr-state-warm: one SearchJob in
/// this process. `journal` is the store's journal ("" = no store);
/// `fresh` journals are deleted before every set-up.
RunReport run_in_process(WorkloadId id, const RunContext& ctx,
                         const std::string& journal, bool fresh) {
  const bool traced = ctx.traced;
  SpanRecorder spans("pid-" + std::to_string(::getpid()));
  set_alloc_counting(traced);
  const int run_span = spans.begin("run");
  obs::MetricsRegistry registry;
  const double journal_before =
      !fresh && !journal.empty() ? file_size(journal) : 0.0;

  RunReport report;
  std::unique_ptr<Session> session;
  report.setup_s = fastest_set_up([&] {
    session.reset();
    if (fresh) remove_journal(journal);
    const int setup_span = spans.begin("setup", run_span);
    const auto start = Clock::now();
    session = set_up(id, ctx, journal, traced ? &registry : nullptr);
    spans.end(setup_span);
    return seconds_since(start);
  });
  const Search& s = *session->search;
  search::SearchJob& job = *session->job;
  const int search_span = spans.begin("search", run_span);
  StageSpans stages(spans, search_span);

  const double slowdown_before = host_slowdown();
  const double cpu_before = process_cpu_seconds();
  const auto search_start = Clock::now();
  // Stage spans around each next_stage() call. Attached as an observer
  // instead, the recorder would switch on the job's per-candidate events,
  // which cost the 60 000-candidate warm replay several percent.
  while (!job.done()) {
    const search::StageKind stage = job.next_stage_kind();
    if (traced) stages.on_stage_start(stage);
    job.next_stage();
    if (traced) stages.on_stage_finish(search::StageEvent{stage, 0.0});
  }
  report.search_s = seconds_since(search_start);
  report.search_cpu_s = process_cpu_seconds() - cpu_before;
  spans.end(search_span);
  report.host_slowdown = (slowdown_before + host_slowdown()) / 2.0;

  const search::SearchResult result = job.run_to_completion();
  report.candidates = static_cast<double>(result.n_total);
  report.ranking = ranking_digest(result, s.fixed);
  report.counters = counters_text(result);
  std::vector<store::OutcomeRecord> records;
  if (id == WorkloadId::kAbrStateWarm) {
    // The warm journal is append-only and must not grow, so its record set
    // is the one the cold preparation run digested; re-scanning the whole
    // journal here would cost more than the run itself.
    if (result.n_probes_run != 0 || result.n_full_trains_run != 0) {
      report.violations.push_back(
          "warm run executed " + std::to_string(result.n_probes_run) +
          " probes and " + std::to_string(result.n_full_trains_run) +
          " full trainings");
    }
    if (file_size(journal) != journal_before) {
      report.violations.push_back("warm run appended to the journal");
    }
  } else {
    records = session->store != nullptr ? session->store->records()
                                        : outcome_records(result, s.fixed);
    report.records = records_digest(records, job.scope());
  }

  if (traced) {
    search_layer_metrics(stages, result, s.config, records, report.search_s,
                         ctx.threads, registry, report.layers);
    store_layer_metrics(registry, session->open_s,
                        journal.empty() ? 0.0 : file_size(journal),
                        report.candidates, report.layers);
    for (const char* name : kSvcMetrics) report.layers[name] = 0.0;
    if (!ctx.trace_path.empty()) {
      finish_trace(ctx, s, *session->pool, spans, run_span, report.layers);
    }
  }
  set_alloc_counting(false);
  return report;
}

/// What a supervised worker reports next to its lease journal.
std::string worker_report_path(const std::string& journal) {
  return journal + ".bench.json";
}

/// abr-state-supervised: the abr-state-stream search through
/// svc::Supervisor, then merge-and-rank in this process.
RunReport run_supervised(const RunContext& ctx) {
  const bool traced = ctx.traced;
  SpanRecorder spans("pid-" + std::to_string(::getpid()));
  const double origin_unix = obs::unix_now() - spans.now();
  set_alloc_counting(traced);
  const int run_span = spans.begin("run");
  // The lease journals use the binary format of abr-state-stream's
  // journal, so the two workloads differ only in supervision.
  ::setenv("NADA_STORE_FORMAT", "binary", 1);
  obs::MetricsRegistry registry;
  const std::string seed = std::to_string(ctx.seed);

  struct Supervised {
    std::unique_ptr<Search> search;
    std::unique_ptr<util::ThreadPool> pool;
    std::unique_ptr<search::ShardRunner> runner;
    std::unique_ptr<svc::Supervisor> supervisor;
  };
  RunReport report;
  std::unique_ptr<Supervised> session;
  report.setup_s = fastest_set_up([&] {
    session.reset();
    const int setup_span = spans.begin("setup", run_span);
    const auto start = Clock::now();
    session = std::make_unique<Supervised>();
    session->search = make_search(WorkloadId::kAbrStateSupervised, ctx.seed);
    const Search& s = *session->search;
    session->pool = std::make_unique<util::ThreadPool>(ctx.threads);
    search::ShardRunnerConfig runner_config;
    runner_config.num_shards = 1;
    runner_config.store_dir = ctx.dir;
    runner_config.metrics = traced ? &registry : nullptr;
    session->runner = std::make_unique<search::ShardRunner>(
        *s.domain, s.config, s.job_seed, runner_config, session->pool.get());
    svc::SupervisorConfig supervisor_config;
    supervisor_config.num_workers = ctx.threads;
    supervisor_config.initial_leases = kSupervisedLeases;
    supervisor_config.dir = ctx.dir;
    supervisor_config.prefix = session->runner->service_prefix();
    supervisor_config.resume = false;
    // The supervisor reads no heartbeat files (no staleness checks, no
    // cluster status); the workers still write them. util::read_file_if_exists
    // throws "cannot open" when a worker's atomic rename creates the file
    // between its failed open and its existence check, and that failed
    // about 2 in 100 supervised runs on the host this was written on.
    supervisor_config.heartbeat_timeout_seconds = 0.0;
    supervisor_config.cluster_status_interval_seconds =
        std::numeric_limits<double>::infinity();
    session->supervisor = std::make_unique<svc::Supervisor>(
        supervisor_config, [&ctx, seed](const svc::Lease& lease) {
          return std::vector<std::string>{
              ctx.self_exe, "worker",       "--seed",
              seed,         "--journal",    lease.journal_path,
              "--range-lo", svc::hex_u64(lease.range.lo),
              "--range-hi", svc::hex_u64(lease.range.hi)};
        });
    spans.end(setup_span);
    return seconds_since(start);
  });
  const Search& s = *session->search;
  search::ShardRunner& runner = *session->runner;
  const int search_span = spans.begin("search", run_span);

  const double slowdown_before = host_slowdown();
  const double cpu_before = process_cpu_seconds();
  const auto search_start = Clock::now();
  const int supervise_span = spans.begin("svc.supervise", search_span);
  const svc::SupervisorReport supervised = session->supervisor->run();
  spans.end(supervise_span);
  if (!supervised.success) {
    throw std::runtime_error("supervision failed: " + supervised.error);
  }
  const int merge_span = spans.begin("svc.merge_rank", search_span);
  StageSpans stages(spans, merge_span);
  std::vector<search::Observer*> observers;
  if (traced) observers.push_back(&stages);
  const search::SearchResult result = runner.merge_and_rank_paths(
      supervised.journal_paths, *s.source, s.fixed, nullptr, observers);
  spans.end(merge_span);
  report.search_s = seconds_since(search_start);
  report.search_cpu_s = process_cpu_seconds() - cpu_before;
  spans.end(search_span);
  report.host_slowdown = (slowdown_before + host_slowdown()) / 2.0;

  if (supervised.crash_restarts + supervised.stale_kills + supervised.splits >
      0) {
    report.violations.push_back(
        "supervisor restarted " + std::to_string(supervised.crash_restarts) +
        ", killed " + std::to_string(supervised.stale_kills) + " and split " +
        std::to_string(supervised.splits) + " workers");
  }
  report.candidates = static_cast<double>(result.n_total);
  report.ranking = ranking_digest(result, s.fixed);
  report.counters = counters_text(result);
  std::vector<store::OutcomeRecord> records;
  {
    const store::CandidateStore merged(runner.merged_store_path(),
                                       runner.scope());
    records = merged.records();
  }
  report.records = records_digest(records, runner.scope());

  if (traced) {
    search_layer_metrics(stages, result, s.config, records,
                         spans.duration(merge_span), ctx.threads, registry,
                         report.layers);
    store_layer_metrics(registry, 0.0, file_size(runner.merged_store_path()),
                        report.candidates, report.layers);
    // Worker spans from the files each worker wrote next to its journal.
    std::vector<double> lease_s;
    double replay_s = 0.0;
    for (const std::string& journal : supervised.journal_paths) {
      const util::JsonValue w = util::JsonValue::parse(
          util::read_file(worker_report_path(journal)));
      const double start = w.get("start_unix").as_number() - origin_unix;
      const double end = w.get("end_unix").as_number() - origin_unix;
      const double generate_s = w.get("generate_s").as_number();
      const int lease = spans.add("svc.lease", start, end, supervise_span);
      spans.add("svc.worker.generate", start, start + generate_s, lease);
      lease_s.push_back(end - start);
      replay_s += generate_s;
    }
    const double supervise_s = spans.duration(supervise_span);
    const double p50 = util::percentile(lease_s, 50.0);
    const double max = *std::max_element(lease_s.begin(), lease_s.end());
    double busy = 0.0;
    for (const double l : lease_s) busy += l;
    auto& out = report.layers;
    out["svc.supervise_s"] = supervise_s;
    out["svc.merge_rank_s"] = spans.duration(merge_span);
    out["svc.spawned"] = static_cast<double>(supervised.spawned);
    out["svc.lease_s_p50"] = p50;
    out["svc.lease_s_max"] = max;
    out["svc.straggler_ratio"] = ratio(max, p50);
    out["svc.worker_util"] =
        ratio(busy, supervise_s * static_cast<double>(ctx.threads));
    out["svc.replay_s_per_worker"] =
        ratio(replay_s, static_cast<double>(lease_s.size()));
    if (!ctx.trace_path.empty()) {
      finish_trace(ctx, s, *session->pool, spans, run_span, report.layers);
    }
  }
  set_alloc_counting(false);
  return report;
}

}  // namespace

std::size_t run_threads() {
  return std::clamp<std::size_t>(allowed_cpus().size(), 1, 4);
}

const std::vector<WorkloadInfo>& all_workloads() { return kWorkloads; }

const WorkloadInfo* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

util::JsonValue RunReport::to_json() const {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("candidates", util::JsonValue::number(candidates));
  doc.set("setup_s", util::JsonValue::number(setup_s));
  doc.set("search_s", util::JsonValue::number(search_s));
  doc.set("search_cpu_s", util::JsonValue::number(search_cpu_s));
  doc.set("host_slowdown", util::JsonValue::number(host_slowdown));
  doc.set("ranking", util::JsonValue::string(ranking));
  doc.set("counters", util::JsonValue::string(counters));
  doc.set("records", util::JsonValue::string(records));
  util::JsonValue v = util::JsonValue::array();
  for (const auto& violation : violations) {
    v.push_back(util::JsonValue::string(violation));
  }
  doc.set("violations", std::move(v));
  // [name, value] pairs: util::JsonValue cannot enumerate object keys.
  util::JsonValue l = util::JsonValue::array();
  for (const auto& [name, value] : layers) {
    util::JsonValue pair = util::JsonValue::array();
    pair.push_back(util::JsonValue::string(name));
    pair.push_back(util::JsonValue::number(value));
    l.push_back(std::move(pair));
  }
  doc.set("layers", std::move(l));
  return doc;
}

RunReport RunReport::from_json(const util::JsonValue& doc) {
  RunReport r;
  r.candidates = doc.get("candidates").as_number();
  r.setup_s = doc.get("setup_s").as_number();
  r.search_s = doc.get("search_s").as_number();
  r.search_cpu_s = doc.get("search_cpu_s").as_number();
  r.host_slowdown = doc.get("host_slowdown").as_number();
  r.ranking = doc.get("ranking").as_string();
  r.counters = doc.get("counters").as_string();
  r.records = doc.get("records").as_string();
  for (const auto& v : doc.get("violations").items()) {
    r.violations.push_back(v.as_string());
  }
  for (const auto& pair : doc.get("layers").items()) {
    r.layers[pair.at(0).as_string()] = pair.at(1).as_number();
  }
  return r;
}

RunReport run_workload(WorkloadId id, const RunContext& ctx) {
  switch (id) {
    case WorkloadId::kAbrStateStream:
      return run_in_process(id, ctx, ctx.dir + "/stream.nsb", /*fresh=*/true);
    case WorkloadId::kCcArchBatch:
      return run_in_process(id, ctx, "", /*fresh=*/false);
    case WorkloadId::kAbrStateWarm:
      return run_in_process(id, ctx, ctx.warm_journal, /*fresh=*/false);
    case WorkloadId::kAbrStateSupervised:
      return run_supervised(ctx);
  }
  throw std::logic_error("run_workload: unknown workload");
}

RunReport prepare_warm_journal(const RunContext& ctx) {
  const auto s = make_search(WorkloadId::kAbrStateWarm, ctx.seed);
  util::ThreadPool pool(ctx.threads);
  store::CandidateStore store(
      ctx.warm_journal, search::store_scope(*s->domain, s->config, s->job_seed));
  search::JobOptions options;
  options.store = &store;
  options.pool = &pool;
  search::SearchJob job(*s->domain, s->config, s->job_seed, *s->source,
                        s->fixed, options);
  const search::SearchResult result = job.run_to_completion();
  RunReport report;
  report.candidates = static_cast<double>(result.n_total);
  report.ranking = ranking_digest(result, s->fixed);
  report.counters = counters_text(result);
  report.records = records_digest(store.records(), store.scope());
  return report;
}

int worker_main(int argc, char** argv) {
  const double start_unix = obs::unix_now();
  std::uint64_t seed = 0;
  std::string journal;
  std::optional<std::uint64_t> lo;
  std::optional<std::uint64_t> hi;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--journal") journal = value;
    else if (flag == "--range-lo") lo = svc::parse_hex_u64(value);
    else if (flag == "--range-hi") hi = svc::parse_hex_u64(value);
  }
  if (journal.empty() || !lo || !hi || argc % 2 != 0) {
    std::cerr << "nada_bench worker: needs --seed, --journal, --range-lo and "
                 "--range-hi\n";
    return 2;  // the supervisor's fail-fast code: a restart cannot help
  }
  try {
    const auto s = make_search(WorkloadId::kAbrStateSupervised, seed);
    search::ShardRunnerConfig runner_config;
    runner_config.num_shards = 1;
    runner_config.store_dir = util::parent_directory(journal);
    search::ShardRunner runner(*s->domain, s->config, s->job_seed,
                               runner_config, nullptr);
    SpanRecorder spans("worker");
    StageSpans stages(spans, SpanRecorder::kNoParent);
    (void)runner.run_range(store::ShardPlan::Range{*lo, *hi}, journal,
                           *s->source, s->fixed, {&stages});
    util::JsonValue doc = util::JsonValue::object();
    doc.set("start_unix", util::JsonValue::number(start_unix));
    doc.set("end_unix", util::JsonValue::number(obs::unix_now()));
    doc.set("generate_s", util::JsonValue::number(stages.seconds("generate")));
    util::write_file_atomic(worker_report_path(journal), doc.dump() + "\n");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nada_bench worker: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace nada::bench
