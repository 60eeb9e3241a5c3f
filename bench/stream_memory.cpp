// stream_memory: the constant-memory claim of the rolling-window funnel.
//
// Runs the same seeded congestion-control state search at 1k/5k/20k
// candidates in batch mode (window_size = 0, the whole stream one window)
// and in streaming mode (rolling windows of 64), and records each run's
// peak RSS and candidates/sec. Every measurement runs in a forked child so
// ru_maxrss is per-run, not the monotone process-lifetime max. Expected
// shape: the batch path's peak RSS grows linearly with the candidate count
// (every spec, parsed program, and outcome lives until the fold, which
// drops the specs and programs and keeps the outcomes until rank); the
// streaming path stays flat — its 20k run should sit within ~2x of its 1k
// run.
//
// The probe budget is deliberately tiny (short CC episodes, 2-epoch
// probes): the bench measures the funnel's memory mechanics, not training
// throughput. No store is attached — a store would add its own O(n)
// in-memory index to both modes (see docs/STORE_FORMAT.md).
//
// A second table measures the candidate store's open path: binary
// journals of 10k/100k/1M synthetic records (scaled by NADA_SCALE_GEN) are
// opened in forked children, timing CandidateStore construction plus one
// lookup and recording peak RSS. Expected shape: flat — the mmap'd sidecar
// makes open O(index) and the lookup deserializes one frame ("frames
// decoded" pins that at 1). The retired JSONL backend's linear open cost is
// recorded in docs/STORE_FORMAT.md.
//
// Writes bench_results/stream_memory.csv and
// bench_results/store_open.csv. Args: `store-only` / `funnel-only` run a
// single table (CI's million-record open-path step uses store-only at
// full scale).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cc/cc_domain.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/search_job.h"
#include "store/candidate_store.h"
#include "store/record_codec.h"
#include "trace/generator.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace nada;

struct RunStats {
  std::size_t n_total = 0;
  std::size_t probes = 0;
  double seconds = 0.0;
  double best = 0.0;
  double peak_rss_mb = 0.0;
};

search::SearchConfig bench_config(std::size_t candidates,
                                  std::size_t window) {
  search::SearchConfig config;
  config.num_candidates = candidates;
  config.early_epochs = 2;
  config.full_train_top = 2;
  config.seeds = 1;
  config.train.epochs = 4;
  config.train.test_interval = 2;
  config.train.max_eval_traces = 2;
  config.window_size = window;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = 8;
  arch.rnn_hidden = 8;
  arch.scalar_hidden = 8;
  arch.merge_hidden = 16;
  config.baseline_arch = arch;
  return config;
}

/// The measured workload, executed inside the forked child: build the
/// domain, stream the candidates through the funnel, report counters.
RunStats run_search(std::size_t candidates, std::size_t window) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.05, 21);
  cc::CcConfig cc_config;
  cc_config.init_rate_mbps = 2.0;
  cc_config.steps_per_episode = 8;
  const cc::CcDomain domain(dataset, cc_config);
  const search::SearchConfig config = bench_config(candidates, window);
  gen::StateGenerator generator(gen::cc_state_space(), gen::gpt4_profile(),
                                gen::PromptStrategy{}, 77);
  search::StateCandidateSource source(generator);
  search::JobOptions options;
  options.metrics = bench::bench_metrics();  // NADA_BENCH_METRICS opt-in
  search::SearchJob job(domain, config, 1234, source,
                        search::FixedDesign{nullptr, &config.baseline_arch},
                        options);
  const bench::Stopwatch watch;
  const auto result = job.run_to_completion();
  RunStats stats;
  stats.n_total = result.n_total;
  stats.probes = result.n_probes_run;
  stats.seconds = watch.seconds();
  stats.best = result.best_score;
  // Each measurement is its own forked child, so the dump happens here
  // (one snapshot file per run, tagged by mode and count).
  bench::dump_bench_metrics((window == 0 ? "batch-" : "stream-") +
                            std::to_string(candidates));
  return stats;
}

/// Forks, runs the search in the child, and collects the child's counters
/// (over a pipe) plus its peak RSS (via wait4's rusage).
RunStats measure(std::size_t candidates, std::size_t window) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("stream_memory: pipe");
    std::exit(1);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("stream_memory: fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    const RunStats stats = run_search(candidates, window);
    FILE* out = fdopen(fds[1], "w");
    std::fprintf(out, "%zu %zu %.9f %.9f\n", stats.n_total, stats.probes,
                 stats.seconds, stats.best);
    std::fclose(out);
    _exit(0);
  }
  close(fds[1]);
  RunStats stats;
  FILE* in = fdopen(fds[0], "r");
  if (std::fscanf(in, "%zu %zu %lf %lf", &stats.n_total, &stats.probes,
                  &stats.seconds, &stats.best) != 4) {
    std::cerr << "stream_memory: child reported no stats\n";
    std::exit(1);
  }
  std::fclose(in);
  int status = 0;
  struct rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || status != 0) {
    std::cerr << "stream_memory: child failed (status " << status << ")\n";
    std::exit(1);
  }
  // Linux reports ru_maxrss in KiB.
  stats.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return stats;
}

// ---- store-format open path ------------------------------------------------

store::StoreScope bench_scope() {
  return store::StoreScope{"bench", "store-open-bench-digest"};
}

store::Fingerprint nth_fingerprint(std::size_t i) {
  store::Fingerprint fp;
  fp.hi = util::mix64(0x9e3779b97f4a7c15ULL + i);
  fp.lo = util::mix64(0x2545f4914f6cdd1dULL ^ i) | 1;
  return fp;
}

store::OutcomeRecord nth_record(std::size_t i) {
  store::OutcomeRecord r;
  r.fingerprint = nth_fingerprint(i);
  r.stage = store::Stage::kProbed;
  r.id = "cand-" + std::to_string(i);
  r.source = "emit \"x\" = " + std::to_string(i) + ";\n";
  r.compiled = true;
  r.normalized = true;
  r.early_probed = true;
  r.early_rewards = {0.25, 0.5, 0.75};
  return r;
}

/// Writes an n-record binary journal and lets a throwaway open build and
/// persist the sidecar, as any real prior run would have.
std::string build_journal(std::size_t n, const std::string& dir) {
  const std::string path = dir + "/open-bench-" + std::to_string(n) + ".nsb";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(store::kBinaryJournalMagic.data(),
            static_cast<std::streamsize>(store::kBinaryJournalMagic.size()));
  std::string buffer;
  for (std::size_t i = 0; i < n; ++i) {
    buffer += store::encode_record(nth_record(i), bench_scope());
    if (buffer.size() > (1u << 20)) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.flush();
  if (!out) {
    std::cerr << "stream_memory: cannot write " << path << "\n";
    std::exit(1);
  }
  out.close();
  // Build the sidecar in a child, so the rebuild scan's RSS is not
  // inherited by the measurement fork.
  const pid_t pid = fork();
  if (pid == 0) {
    store::CandidateStore store(path, bench_scope());
    _exit(0);
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || status != 0) {
    std::cerr << "stream_memory: sidecar build for " << path << " failed\n";
    std::exit(1);
  }
  return path;
}

struct OpenStats {
  std::size_t records = 0;
  double open_ms = 0.0;
  double lookup_ms = 0.0;
  std::size_t frames_decoded = 0;
  double peak_rss_mb = 0.0;
};

/// Forked child: time CandidateStore construction and one cache-hit
/// lookup; peak RSS comes from the parent's wait4.
OpenStats measure_open(const std::string& path, std::size_t n) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("stream_memory: pipe");
    std::exit(1);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("stream_memory: fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    const auto t0 = std::chrono::steady_clock::now();
    store::CandidateStore store(path, bench_scope());
    const auto t1 = std::chrono::steady_clock::now();
    const auto got = store.lookup(nth_fingerprint(n / 2));
    const auto t2 = std::chrono::steady_clock::now();
    if (!got.has_value() || store.size() != n) {
      std::cerr << "stream_memory: store at " << path << " lost records\n";
      _exit(1);
    }
    const double open_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double lookup_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    FILE* out = fdopen(fds[1], "w");
    std::fprintf(out, "%zu %.9f %.9f %zu\n", store.size(), open_ms, lookup_ms,
                 store.decoded_frames());
    std::fclose(out);
    _exit(0);
  }
  close(fds[1]);
  OpenStats stats;
  FILE* in = fdopen(fds[0], "r");
  if (std::fscanf(in, "%zu %lf %lf %zu", &stats.records, &stats.open_ms,
                  &stats.lookup_ms, &stats.frames_decoded) != 4) {
    std::cerr << "stream_memory: open-bench child reported no stats\n";
    std::exit(1);
  }
  std::fclose(in);
  int status = 0;
  struct rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || status != 0) {
    std::cerr << "stream_memory: open-bench child failed (status " << status
              << ")\n";
    std::exit(1);
  }
  stats.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return stats;
}

int run_store_table(const util::ScaleConfig& scale) {
  const std::vector<std::size_t> counts = {scale.gen_count(10'000),
                                           scale.gen_count(100'000),
                                           scale.gen_count(1'000'000)};
  const std::string dir =
      (std::filesystem::temp_directory_path() / "nada_store_open_bench")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  util::TextTable table("store open path (binary+index)");
  table.set_header({"format", "records", "open ms", "lookup ms",
                    "frames decoded", "peak RSS MB"});
  for (const std::size_t n : counts) {
    const std::string path = build_journal(n, dir);
    const OpenStats stats = measure_open(path, n);
    table.add_row({"binary", std::to_string(stats.records),
                   util::format_double(stats.open_ms, 2),
                   util::format_double(stats.lookup_ms, 3),
                   std::to_string(stats.frames_decoded),
                   util::format_double(stats.peak_rss_mb, 1)});
    std::cout << "binary " << n << " records: open "
              << util::format_double(stats.open_ms, 2) << " ms, "
              << stats.frames_decoded << " frame(s) decoded, "
              << util::format_double(stats.peak_rss_mb, 1) << " MB peak\n";
  }
  table.print(std::cout);
  bench::save_csv("store_open.csv", table);
  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (!mode.empty() && mode != "store-only" && mode != "funnel-only") {
    std::cerr << "usage: stream_memory [store-only|funnel-only]\n";
    return 2;
  }
  const util::ScaleConfig scale = util::ScaleConfig::from_env();
  bench::banner("stream_memory: batch vs rolling-window funnel memory",
                scale);
  if (mode == "store-only") return run_store_table(scale);

  const std::vector<std::size_t> counts = {
      scale.gen_count(1000), scale.gen_count(5000), scale.gen_count(20000)};
  const std::size_t kWindow = 64;

  util::TextTable table("stream_memory (CC domain, window " +
                        std::to_string(kWindow) + " vs batch)");
  table.set_header({"mode", "candidates", "peak RSS MB", "seconds",
                    "cand/s", "RSS vs smallest"});
  double base_rss[2] = {0.0, 0.0};  // [batch, stream] smallest-count RSS
  for (std::size_t c = 0; c < counts.size(); ++c) {
    for (const bool streaming : {false, true}) {
      const RunStats stats = measure(counts[c], streaming ? kWindow : 0);
      if (c == 0) base_rss[streaming ? 1 : 0] = stats.peak_rss_mb;
      const double ratio =
          stats.peak_rss_mb / std::max(base_rss[streaming ? 1 : 0], 1e-9);
      table.add_row({streaming ? "stream" : "batch",
                     std::to_string(stats.n_total),
                     util::format_double(stats.peak_rss_mb, 1),
                     util::format_double(stats.seconds, 2),
                     util::format_double(
                         static_cast<double>(stats.n_total) / stats.seconds,
                         1),
                     util::format_double(ratio, 2) + "x"});
      std::cout << (streaming ? "stream" : "batch ") << " " << stats.n_total
                << " candidates: " << util::format_double(stats.peak_rss_mb, 1)
                << " MB peak, " << stats.probes << " probes, "
                << util::format_double(stats.seconds, 2) << "s\n";
    }
  }
  table.print(std::cout);
  bench::save_csv("stream_memory.csv", table);
  if (mode != "funnel-only") return run_store_table(scale);
  return 0;
}
