#include "layers.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "filter/checks.h"
#include "rl/agent.h"
#include "rl/batch_probe.h"

namespace nada::bench {
namespace {

/// Candidates the filter, dsl, nn and rl replays draw from: the head of the
/// workload's own stream.
constexpr std::size_t kSample = 256;
/// Probe jobs in the rl replay.
constexpr std::size_t kProbeJobs = 16;
/// Repetitions of the sub-millisecond calls (state program run, inference).
constexpr std::size_t kMicroReps = 2000;
/// Training episodes stepped by the env replay.
constexpr std::size_t kEpisodes = 8;

/// Keeps the results of the timed loops observable.
volatile double g_sink = 0.0;

/// A candidate that passed the pre-checks, with what the probe needs.
struct Passed {
  search::CandidateSpec spec;
  store::Fingerprint fp;
  std::optional<dsl::StateProgram> program;  ///< state candidates
};

}  // namespace

void replay_layers(const LayerInputs& in, SpanRecorder& spans, int parent,
                   std::map<std::string, double>& out) {
  const env::TaskDomain& domain = *in.domain;
  const search::SearchConfig& config = *in.config;
  const std::size_t n = config.num_candidates;

  // ---- gen: pull the stream in the job's window size, fingerprint it.
  std::vector<search::CandidateSpec> sample;
  std::set<std::pair<std::uint64_t, std::uint64_t>> distinct;
  double pull_s = 0.0;
  double fingerprint_s = 0.0;
  std::size_t pulled = 0;
  const int gen_span = spans.begin("layer.gen", parent);
  in.source->reset();
  const std::size_t chunk = config.streaming() ? config.window_size : n;
  std::vector<store::Fingerprint> fps;
  while (pulled < n) {
    auto start = std::chrono::steady_clock::now();
    std::vector<search::CandidateSpec> specs =
        in.source->generate(std::min(chunk, n - pulled));
    pull_s += seconds_since(start);
    if (specs.empty()) break;
    fps.resize(specs.size());
    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      fps[i] = search::fingerprint_of(specs[i], in.fixed);
    }
    fingerprint_s += seconds_since(start);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      distinct.emplace(fps[i].hi, fps[i].lo);
      if (sample.size() < kSample) sample.push_back(std::move(specs[i]));
    }
    pulled += specs.size();
  }
  spans.end(gen_span);
  const double count = static_cast<double>(std::max<std::size_t>(pulled, 1));
  out["gen.pull_us_per_cand"] = pull_s * 1e6 / count;
  out["gen.fingerprint_us_per_cand"] = fingerprint_s * 1e6 / count;
  out["gen.distinct_ratio"] = static_cast<double>(distinct.size()) / count;

  // ---- filter: the pre-checks on the head of the stream, with the job's
  // own normalization seeds, so the pass ratio is the funnel's.
  std::vector<Passed> passed;
  double check_s = 0.0;
  const int filter_span = spans.begin("layer.filter", parent);
  std::optional<nn::StateSignature> fixed_signature;
  for (search::CandidateSpec& spec : sample) {
    const store::Fingerprint fp = search::fingerprint_of(spec, in.fixed);
    Passed candidate{spec, fp, std::nullopt};
    bool ok = false;
    if (spec.kind == search::CandidateKind::kStateProgram) {
      const auto start = std::chrono::steady_clock::now();
      ok = filter::compilation_check(spec.source, domain.catalog(),
                                     &candidate.program)
               .passed &&
           filter::normalization_check(*candidate.program, domain.catalog(),
                                       config.normalization_threshold,
                                       config.normalization_fuzz_runs,
                                       in.job_seed ^ (fp.lo * 0x9e3779b9ULL))
               .passed;
      check_s += seconds_since(start);
    } else {
      if (!fixed_signature.has_value()) {
        fixed_signature = rl::derive_signature(*in.fixed.state, domain.catalog());
      }
      const auto start = std::chrono::steady_clock::now();
      ok = filter::arch_compilation_check(*spec.arch, *fixed_signature,
                                          domain.num_actions())
               .passed;
      check_s += seconds_since(start);
    }
    if (ok) passed.push_back(std::move(candidate));
  }
  spans.end(filter_span);
  const double sampled = static_cast<double>(std::max<std::size_t>(sample.size(), 1));
  out["filter.check_us_per_cand"] = check_s * 1e6 / sampled;
  out["filter.pass_ratio"] = static_cast<double>(passed.size()) / sampled;

  // The state programs the dsl and nn replays run: the passing candidates'
  // programs, or the fixed program when the stream varies architectures.
  std::vector<const dsl::StateProgram*> programs;
  for (const Passed& p : passed) {
    if (p.program.has_value()) programs.push_back(&*p.program);
  }
  if (programs.empty()) programs.push_back(in.fixed.state);
  const dsl::Bindings canned = domain.catalog().canned();

  // ---- dsl: StateProgram::run on the catalog's canned observation.
  const std::size_t reps = std::max<std::size_t>(kMicroReps / programs.size(), 1);
  const double dsl_s = spans.time("layer.dsl", parent, [&] {
    std::size_t rows = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      for (const dsl::StateProgram* program : programs) {
        rows += program->run(canned).rows.size();
      }
    }
    g_sink = static_cast<double>(rows);
  });
  out["dsl.run_us"] =
      dsl_s * 1e6 / static_cast<double>(reps * programs.size());

  // ---- env: training episodes stepped with a fixed action pattern.
  std::size_t steps = 0;
  const double env_s = spans.time("layer.env", parent, [&] {
    util::Rng rng(in.job_seed ^ 0xe7e7e7e7ULL);
    for (std::size_t e = 0; e < kEpisodes; ++e) {
      auto episode =
          domain.start_train_episode(config.train.fidelity, rng);
      (void)episode->reset();
      for (std::size_t t = 0; !episode->done(); ++t) {
        (void)episode->step(t % domain.num_actions());
        ++steps;
      }
    }
  });
  out["env.step_us"] = env_s * 1e6 / static_cast<double>(std::max<std::size_t>(steps, 1));

  // ---- nn: inference of the workload's network on one state.
  const nn::ArchSpec& arch =
      in.fixed.arch != nullptr
          ? *in.fixed.arch
          : (passed.empty() ? config.baseline_arch : *passed.front().spec.arch);
  util::Rng init_rng(in.job_seed ^ 0x11111111ULL);
  rl::PolicyAgent agent(*programs.front(), arch, domain.num_actions(),
                        domain.catalog(), init_rng);
  agent.net().sync_inference_cache();
  const std::vector<nn::Vec> rows =
      agent.network_rows(agent.eval_state(canned));
  const double nn_s = spans.time("layer.nn", parent, [&] {
    double checksum = 0.0;
    for (std::size_t r = 0; r < kMicroReps; ++r) {
      checksum += agent.net().forward_inference(rows).value;
    }
    g_sink = checksum;
  });
  out["nn.infer_us"] = nn_s * 1e6 / static_cast<double>(kMicroReps);

  // ---- rl: BatchProbeTrainer::train on the workload's probe jobs, on one
  // thread and on the run's pool.
  std::vector<rl::ProbeJob> jobs;
  for (const Passed& p : passed) {
    if (jobs.size() == kProbeJobs) break;
    const bool is_state = p.program.has_value();
    jobs.push_back(rl::ProbeJob{is_state ? &*p.program : in.fixed.state,
                                is_state ? in.fixed.arch : &*p.spec.arch,
                                search::probe_seed(p.spec, in.job_seed, p.fp)});
  }
  rl::TrainConfig probe_config = config.train;
  probe_config.epochs = config.early_epochs;
  probe_config.evaluate_checkpoints = false;
  const rl::BatchProbeTrainer trainer(
      domain, rl::BatchProbeConfig{probe_config, config.probe_block, nullptr});
  double serial_s = 0.0;
  double pooled_s = 0.0;
  std::uint64_t allocs = 0;
  if (!jobs.empty()) {
    const std::uint64_t allocs_before = alloc_count();
    serial_s = spans.time("layer.rl.1t", parent,
                          [&] { (void)trainer.train(jobs, nullptr); });
    allocs = alloc_count() - allocs_before;
    pooled_s = spans.time("layer.rl.pool", parent,
                          [&] { (void)trainer.train(jobs, in.pool); });
  }
  const double num_jobs = static_cast<double>(std::max<std::size_t>(jobs.size(), 1));
  const double threads = static_cast<double>(in.pool != nullptr ? in.pool->size() : 1);
  out["rl.probe_ms_per_cand_1t"] = serial_s * 1e3 / num_jobs;
  out["rl.probe_ms_per_cand_4t"] = pooled_s * 1e3 / num_jobs;
  out["rl.probe_parallel_eff"] =
      pooled_s > 0.0 ? serial_s / (pooled_s * threads) : 0.0;
  out["rl.probe_allocs_per_step"] =
      static_cast<double>(allocs) /
      (num_jobs * static_cast<double>(config.early_epochs) *
       static_cast<double>(domain.episode_length()));
}

}  // namespace nada::bench
