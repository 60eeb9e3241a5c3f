// nada_bench: the end-to-end funnel benchmark.
//
// NADA's filter funnel exists to find the top designs while avoiding most
// full-scale evaluations, so what a user of it sees is how many candidates
// the funnel screens per second and how much CPU each costs, at a stated
// funnel size, with the ranking unchanged. This binary measures exactly
// that on four fixed workloads (workloads.h), checks the ranking and the
// stored records against each other and against golden digests, and with
// tracing reports per-layer figures.
//
//   nada_bench [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1]
//              [--out FILE]
//   nada_bench compare A.json B.json
//
// Per workload: preparation (abr-state-warm builds the journal it replays;
// abr-state-supervised runs abr-state-stream as its reference), one
// discarded warm-up run, then runs for --seconds seconds: untraced runs
// (at least three) and, with --trace 1, as many traced runs alternating
// with them. Every run is a forked child (run_child.h). The end-to-end
// metrics are medians over the untraced runs, with every time divided by
// the host's slowdown measured next to it (host_speed.h); the last line of
// stdout is one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). --out gets every per-run value with its
// median, quartiles and count, and the slowdowns; `compare` judges two
// such files against the bounds in BENCHMARK.json. The exit code is
// nonzero when any correctness check failed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "nn/mat_kernels.h"
#include "run_child.h"
#include "trace.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/stats.h"
#include "workloads.h"

// ---- allocation counter --------------------------------------------------------
// Global operator new/delete are replaced so the traced run can count every
// heap allocation the library makes, from outside the library, and only
// while enabled. Each thread counts in a relaxed atomic on its own cache
// line, which only that thread writes, so an increment is a plain load and
// store: one shared counter, hit by every allocation of every pool thread,
// slowed the traced run by several percent.

namespace {

constexpr std::size_t kCounterSlots = 256;

struct alignas(64) CounterSlot {
  std::atomic<std::uint64_t> allocs{0};
};

std::atomic<bool> g_count_allocs{false};
CounterSlot g_slots[kCounterSlots];
std::atomic<std::size_t> g_slots_used{0};
/// This thread's slot; threads beyond kCounterSlots share the last one,
/// which is therefore incremented with an atomic add.
thread_local CounterSlot* t_slot = nullptr;

void count_alloc() {
  if (!g_count_allocs.load(std::memory_order_relaxed)) return;
  if (t_slot == nullptr) {
    const std::size_t i = g_slots_used.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[std::min(i, kCounterSlots - 1)];
  }
  std::atomic<std::uint64_t>& allocs = t_slot->allocs;
  if (t_slot == &g_slots[kCounterSlots - 1]) {
    allocs.fetch_add(1, std::memory_order_relaxed);
  } else {
    allocs.store(allocs.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  count_alloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count_alloc();
  void* p = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (::posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return operator new(size, align, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace nada::bench {

void set_alloc_counting(bool enabled) {
  g_count_allocs.store(enabled, std::memory_order_relaxed);
}

std::uint64_t alloc_count() {
  const std::size_t used =
      std::min(g_slots_used.load(std::memory_order_relaxed), kCounterSlots);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < used; ++i) {
    total += g_slots[i].allocs.load(std::memory_order_relaxed);
  }
  return total;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Allocates a known number of blocks with counting on; false when the
/// counter does not read exactly that number.
bool alloc_counter_self_check() {
  constexpr std::size_t kBlocks = 64;
  void* volatile blocks[kBlocks] = {};
  set_alloc_counting(true);
  const std::uint64_t before = alloc_count();
  for (std::size_t i = 0; i < kBlocks; ++i) blocks[i] = ::operator new(16 + i);
  const std::uint64_t counted = alloc_count() - before;
  set_alloc_counting(false);
  for (std::size_t i = 0; i < kBlocks; ++i) ::operator delete(blocks[i]);
  if (counted != kBlocks) {
    std::cerr << "nada_bench: allocation counter self-check failed: counted "
              << counted << " of " << kBlocks << " allocations\n";
    return false;
  }
  return true;
}

// ---- metric catalog ---------------------------------------------------------------

enum class Better { kLower, kHigher };

struct EndToEnd {
  const char* name;
  const char* unit;
  Better better;
};

/// The end-to-end metrics; their bounds live in BENCHMARK.json.
const EndToEnd kEndToEnd[] = {
    {"setup_s", "s", Better::kLower},
    {"cand_per_s", "cand/s", Better::kHigher},
    {"cpu_ms_per_cand", "ms", Better::kLower},
    {"peak_rss_mb", "MB", Better::kLower},
};

/// Per-layer metrics and their units, in report order.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"search.generate_s", "s"},
    {"search.precheck_s", "s"},
    {"search.probe_s", "s"},
    {"search.baseline_s", "s"},
    {"search.select_s", "s"},
    {"search.full_train_s", "s"},
    {"search.rank_s", "s"},
    {"search.stage_cover", "fraction"},
    {"search.window_s_p50", "s"},
    {"search.window_s_p90", "s"},
    {"search.probes_per_s", "1/s"},
    {"search.reprobe_ratio", "ratio"},
    {"search.generate.allocs_per_cand", "count"},
    {"search.precheck.allocs_per_cand", "count"},
    {"search.probe.allocs_per_probe", "count"},
    {"gen.pull_us_per_cand", "us"},
    {"gen.fingerprint_us_per_cand", "us"},
    {"gen.distinct_ratio", "fraction"},
    {"filter.check_us_per_cand", "us"},
    {"filter.pass_ratio", "fraction"},
    {"dsl.run_us", "us"},
    {"dsl.cost_units_per_probe", "count"},
    {"env.step_us", "us"},
    {"nn.infer_us", "us"},
    {"nn.flops_per_probe", "count"},
    {"rl.probe_ms_per_cand_1t", "ms"},
    {"rl.probe_ms_per_cand_4t", "ms"},
    {"rl.probe_parallel_eff", "fraction"},
    {"rl.probe_allocs_per_step", "count"},
    {"rl.probe_pool_util", "fraction"},
    {"rl.full_train_s_per_session", "s"},
    {"store.open_s", "s"},
    {"store.lookup_us_mean", "us"},
    {"store.append_us_mean", "us"},
    {"store.lookups_per_cand", "count"},
    {"store.appends_per_cand", "count"},
    {"store.hit_ratio", "fraction"},
    {"store.journal_bytes_per_cand", "bytes"},
    {"svc.supervise_s", "s"},
    {"svc.merge_rank_s", "s"},
    {"svc.spawned", "count"},
    {"svc.lease_s_p50", "s"},
    {"svc.lease_s_max", "s"},
    {"svc.straggler_ratio", "ratio"},
    {"svc.worker_util", "fraction"},
    {"svc.replay_s_per_worker", "s"},
    {"obs.trace_overhead", "fraction"},
};

// ---- statistics ----------------------------------------------------------------------

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the default "exclusive" method), so this report and any Python
/// post-processing agree.
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size();
  if (m == 0) return {0.0, 0.0};
  if (m == 1) return {v[0], v[0]};
  auto cut = [&](std::size_t i) {
    const std::size_t raw = i * (m + 1) / 4;
    const std::size_t j = std::clamp<std::size_t>(raw, 1, m - 1);
    const double delta = static_cast<double>(i * (m + 1)) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  return {cut(1), cut(3)};
}

util::JsonValue summary(const std::vector<double>& values, const char* unit) {
  util::JsonValue doc = util::JsonValue::object();
  util::JsonValue raw = util::JsonValue::array();
  for (const double v : values) raw.push_back(util::JsonValue::number(v));
  const auto [q1, q3] = quartiles(values);
  doc.set("unit", util::JsonValue::string(unit));
  doc.set("values", std::move(raw));
  doc.set("median", util::JsonValue::number(util::median(values)));
  doc.set("q1", util::JsonValue::number(q1));
  doc.set("q3", util::JsonValue::number(q3));
  doc.set("n", util::JsonValue::number(static_cast<double>(values.size())));
  return doc;
}

// ---- the benchmark run -------------------------------------------------------------

/// Seconds one workload may take, preparation included: automated runs of
/// one workload per invocation allow 180.
constexpr double kWorkloadBudgetSeconds = 170.0;
constexpr double kRunTimeoutSeconds = 120.0;
constexpr std::size_t kMinMeasuredRuns = 3;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = true;
  std::string out = "bench_results/nada_bench.json";
};

struct WorkloadResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, std::vector<double>> samples;  ///< end-to-end, per run
  std::vector<double> host_slowdowns;                  ///< per measured run
  std::map<std::string, double> layers;                ///< traced run
  std::optional<RunReport> reference;                  ///< digests all runs match

  [[nodiscard]] bool correct() const { return failed == 0 && problems.empty(); }
  [[nodiscard]] double error_rate() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// The digests of golden.json for `workload` at the default seed, or a
/// reason why there is nothing to compare against.
std::optional<util::JsonValue> golden_for(const std::string& workload,
                                          std::string& why_not) {
  const auto text = util::read_file_if_exists(NADA_BENCH_GOLDEN);
  if (!text.has_value()) {
    why_not = std::string("missing ") + NADA_BENCH_GOLDEN;
    return std::nullopt;
  }
  const util::JsonValue doc = util::JsonValue::parse(*text);
  // scalar and avx2 kernels are bit-identical; fma rounds differently.
  if ((doc.get("kernel_flavor").as_string() == "fma") !=
      (nn::kernel_flavor() == nn::KernelFlavor::kFma)) {
    why_not = "golden digests were recorded with the " +
              doc.get("kernel_flavor").as_string() + " kernel flavor";
    return std::nullopt;
  }
  const util::JsonValue& entry = doc.get("workloads").get(workload);
  if (entry.is_null()) {
    why_not = "no golden digests for " + workload;
    return std::nullopt;
  }
  return entry;
}

class WorkloadBench {
 public:
  WorkloadBench(const WorkloadInfo& info, const Options& options,
                std::string self_exe)
      : info_(info), options_(options),
        deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         kWorkloadBudgetSeconds))) {
    ctx_.seed = options.seed;
    ctx_.threads = run_threads();
    ctx_.self_exe = std::move(self_exe);
    base_dir_ = ".bench_build/nada_bench/work-" + std::to_string(::getpid()) +
                "/" + info.name;
    std::filesystem::remove_all(base_dir_);
    util::ensure_directories(base_dir_);
    ctx_.warm_journal = base_dir_ + "/warm.nsb";
  }
  ~WorkloadBench() {
    std::error_code ignored;
    std::filesystem::remove_all(base_dir_, ignored);
  }
  WorkloadBench(const WorkloadBench&) = delete;
  WorkloadBench& operator=(const WorkloadBench&) = delete;

  WorkloadResult run() {
    if (info_.id == WorkloadId::kAbrStateWarm) {
      expect_reference(attempt("preparation", [&](const RunContext& ctx) {
        return prepare_warm_journal(ctx);
      }));
    } else if (info_.id == WorkloadId::kAbrStateSupervised) {
      expect_reference(attempt("reference abr-state-stream run",
                               [&](const RunContext& ctx) {
                                 return run_workload(
                                     WorkloadId::kAbrStateStream, ctx);
                               }));
    }
    const auto workload_run = [&](const RunContext& ctx) {
      return run_workload(info_.id, ctx);
    };
    check(attempt("warm-up run", workload_run));

    // The measured runs. With tracing, traced runs alternate with them: the
    // host's speed drifts by several percent within a minute, and only
    // neighbouring runs compare traced with untraced speed. The first
    // successful traced run also replays the single layers and writes the
    // trace file.
    const auto start = Clock::now();
    double last_run_s = 0.0;
    std::size_t untraced_runs = 0;
    std::size_t traced_runs = 0;
    std::vector<double> traced_rates;
    for (;;) {
      const double elapsed = seconds_since(start);
      const bool enough = untraced_runs >= kMinMeasuredRuns &&
                          (!options_.trace || traced_runs >= kMinMeasuredRuns);
      if ((enough && elapsed + last_run_s > options_.seconds) ||
          seconds_left() <= 0.0) {
        break;
      }
      const bool traced = options_.trace && traced_runs < untraced_runs;
      const bool write_trace = traced && result_.layers.empty();
      const auto run_start = Clock::now();
      const auto run = attempt(
          traced ? "traced run" : "measured run", workload_run, traced,
          write_trace ? options_.out + ".trace/" + info_.name + ".json" : "");
      last_run_s = seconds_since(run_start);
      ++(traced ? traced_runs : untraced_runs);
      if (!check(run)) continue;
      const auto& [report, child] = *run;
      // Search times in reference-host seconds (host_speed.h).
      const double search_s = report.search_s / report.host_slowdown;
      const double search_cpu_s = report.search_cpu_s / report.host_slowdown;
      const double rate = report.candidates / search_s;
      if (traced) {
        if (write_trace) result_.layers = report.layers;
        traced_rates.push_back(rate);
        continue;
      }
      result_.samples["setup_s"].push_back(report.setup_s);
      result_.samples["cand_per_s"].push_back(rate);
      result_.samples["cpu_ms_per_cand"].push_back(search_cpu_s * 1e3 /
                                                   report.candidates);
      result_.samples["peak_rss_mb"].push_back(child.max_rss_mb);
      result_.host_slowdowns.push_back(report.host_slowdown);
    }
    if (result_.samples["cand_per_s"].empty()) {
      result_.problems.push_back("no measured run succeeded");
    }
    if (!result_.layers.empty() && !result_.samples["cand_per_s"].empty()) {
      result_.layers["obs.trace_overhead"] =
          1.0 - util::median(traced_rates) /
                    util::median(result_.samples["cand_per_s"]);
    }
    check_golden();
    return std::move(result_);
  }

 private:
  using Attempt = std::optional<std::pair<RunReport, ChildRun>>;

  [[nodiscard]] double seconds_left() const {
    return std::chrono::duration<double>(deadline_ - Clock::now()).count();
  }

  /// One run in a forked child, in a fresh directory of its own.
  template <class Body>
  Attempt attempt(const std::string& what, Body body, bool traced = false,
                  const std::string& trace_path = "") {
    ++result_.attempted;
    const double timeout = std::min(kRunTimeoutSeconds, seconds_left());
    if (timeout <= 0.0) {
      ++result_.failed;
      result_.problems.push_back(what + ": no time left in the budget");
      return std::nullopt;
    }
    RunContext ctx = ctx_;
    ctx.dir = base_dir_ + "/run-" + std::to_string(result_.attempted);
    ctx.traced = traced;
    ctx.trace_path = trace_path;
    util::ensure_directories(ctx.dir);
    ChildRun child = run_in_child(
        [&] { return body(ctx).to_json().dump(); }, timeout);
    std::error_code ignored;
    std::filesystem::remove_all(ctx.dir, ignored);
    if (!child.exited_ok) {
      ++result_.failed;
      result_.problems.push_back(what + " failed: " + child.failure);
      return std::nullopt;
    }
    RunReport report = RunReport::from_json(util::JsonValue::parse(child.report));
    if (!report.violations.empty()) {
      ++result_.failed;
      for (const auto& v : report.violations) {
        result_.problems.push_back(what + ": " + v);
      }
      return std::nullopt;
    }
    return std::make_pair(std::move(report), std::move(child));
  }

  void expect_reference(const Attempt& prepared) {
    if (prepared.has_value()) result_.reference = prepared->first;
  }

  /// Every run of one seed must agree with the reference (the preparation
  /// or reference run, else the first successful run). A mismatch fails the
  /// run. Warm runs carry no record digest: their journal is unchanged, so
  /// it is the preparation's.
  bool check(const Attempt& attempted) {
    if (!attempted.has_value()) return false;
    const RunReport& report = attempted->first;
    if (!result_.reference.has_value()) {
      result_.reference = report;
      return true;
    }
    const RunReport& ref = *result_.reference;
    std::vector<std::string> mismatches;
    if (report.ranking != ref.ranking) mismatches.push_back("ranking");
    if (report.counters != ref.counters) {
      mismatches.push_back("counters (" + report.counters + " vs " +
                           ref.counters + ")");
    }
    if (!report.records.empty() && report.records != ref.records) {
      mismatches.push_back("records");
    }
    if (mismatches.empty()) return true;
    ++result_.failed;
    for (const auto& m : mismatches) {
      result_.problems.push_back("digest mismatch: " + m);
    }
    return false;
  }

  void check_golden() {
    if (options_.seed != 1 || !result_.reference.has_value()) return;
    std::string why_not;
    const auto golden = golden_for(info_.name, why_not);
    if (!golden.has_value()) {
      if (why_not.rfind("golden digests were recorded", 0) == 0) {
        std::cout << info_.name << ": golden check skipped: " << why_not << "\n";
      } else {
        result_.problems.push_back(why_not);
      }
      return;
    }
    const RunReport& ref = *result_.reference;
    for (const auto& [key, value] :
         {std::pair{"ranking", ref.ranking}, std::pair{"counters", ref.counters},
          std::pair{"records", ref.records}}) {
      if (golden->get(key).as_string() != value) {
        result_.problems.push_back(std::string("golden mismatch: ") + key);
      }
    }
  }

  const WorkloadInfo& info_;
  const Options& options_;
  Clock::time_point deadline_;
  RunContext ctx_;
  std::string base_dir_;
  WorkloadResult result_;
};

// ---- output ---------------------------------------------------------------------------

util::JsonValue workload_json(const WorkloadResult& r) {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("attempted", util::JsonValue::number(static_cast<double>(r.attempted)));
  doc.set("failed", util::JsonValue::number(static_cast<double>(r.failed)));
  doc.set("correct", util::JsonValue::boolean(r.correct()));
  util::JsonValue problems = util::JsonValue::array();
  for (const auto& p : r.problems) problems.push_back(util::JsonValue::string(p));
  doc.set("problems", std::move(problems));
  util::JsonValue digests = util::JsonValue::object();
  if (r.reference.has_value()) {
    digests.set("ranking", util::JsonValue::string(r.reference->ranking));
    digests.set("counters", util::JsonValue::string(r.reference->counters));
    digests.set("records", util::JsonValue::string(r.reference->records));
  }
  doc.set("digests", std::move(digests));
  util::JsonValue e2e = util::JsonValue::object();
  for (const EndToEnd& m : kEndToEnd) {
    const auto it = r.samples.find(m.name);
    e2e.set(m.name, summary(it == r.samples.end() ? std::vector<double>{}
                                                  : it->second,
                            m.unit));
  }
  e2e.set("error_rate", summary({r.error_rate()}, "fraction"));
  doc.set("end_to_end", std::move(e2e));
  // The measured times divided by these gave the end-to-end values.
  doc.set("host_slowdown", summary(r.host_slowdowns, "x"));
  util::JsonValue layers = util::JsonValue::object();
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = r.layers.find(name);
    if (it == r.layers.end()) continue;
    util::JsonValue item = util::JsonValue::object();
    item.set("unit", util::JsonValue::string(unit));
    item.set("value", util::JsonValue::number(it->second));
    layers.set(name, std::move(item));
  }
  doc.set("per_layer", std::move(layers));
  return doc;
}

void print_workload(const std::string& name, const WorkloadResult& r) {
  for (const EndToEnd& m : kEndToEnd) {
    const auto it = r.samples.find(m.name);
    if (it == r.samples.end() || it->second.empty()) continue;
    const auto [q1, q3] = quartiles(it->second);
    std::cout << name << " " << m.name << " = " << util::median(it->second)
              << " " << m.unit << " (median of " << it->second.size()
              << "; q1 " << q1 << ", q3 " << q3 << ")\n";
  }
  std::cout << name << " error_rate = " << r.error_rate() << " fraction ("
            << r.failed << " of " << r.attempted << " runs failed)\n";
  if (!r.host_slowdowns.empty()) {
    std::cout << name << " host_slowdown = " << util::median(r.host_slowdowns)
              << " (times above are divided by it)\n";
  }
  for (const auto& [metric, unit] : kPerLayer) {
    const auto it = r.layers.find(metric);
    if (it != r.layers.end()) {
      std::cout << name << " " << metric << " = " << it->second << " " << unit
                << "\n";
    }
  }
  for (const auto& p : r.problems) {
    std::cout << name << " PROBLEM: " << p << "\n";
  }
}

/// The last line of stdout, for automated runs: end-to-end medians, or
/// with tracing the per-layer values. Metric names get a "<workload>/"
/// prefix when several workloads ran.
std::string result_line(const std::map<std::string, WorkloadResult>& results,
                        bool traced) {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  util::JsonValue metrics = util::JsonValue::object();
  auto add = [&](const std::string& workload, const std::string& name,
                 const char* unit, double value) {
    util::JsonValue item = util::JsonValue::object();
    item.set("value", util::JsonValue::number(value));
    item.set("unit", util::JsonValue::string(unit));
    metrics.set(results.size() == 1 ? name : workload + "/" + name,
                std::move(item));
  };
  for (const auto& [workload, r] : results) {
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
    if (traced) {
      for (const auto& [name, unit] : kPerLayer) {
        const auto it = r.layers.find(name);
        if (it != r.layers.end()) add(workload, name, unit, it->second);
      }
    } else {
      for (const EndToEnd& m : kEndToEnd) {
        const auto it = r.samples.find(m.name);
        if (it != r.samples.end() && !it->second.empty()) {
          add(workload, m.name, m.unit, util::median(it->second));
        }
      }
    }
  }
  util::JsonValue doc = util::JsonValue::object();
  doc.set("correct", util::JsonValue::boolean(correct));
  doc.set("attempted", util::JsonValue::number(static_cast<double>(attempted)));
  doc.set("failed", util::JsonValue::number(static_cast<double>(failed)));
  doc.set("metrics", std::move(metrics));
  return doc.dump();
}

// ---- compare ---------------------------------------------------------------------------

/// better | same | worse | unresolved for one (workload, metric) pair:
/// medians compared against `bound`, a share of A's median; "unresolved"
/// when either side's quartile spread exceeds that tolerance, unless every
/// run of one side beats every run of the other.
std::string verdict(const EndToEnd& m, double bound, const util::JsonValue& a,
                    const util::JsonValue& b) {
  const std::vector<double> va = util::json_to_doubles(a.get("values"));
  const std::vector<double> vb = util::json_to_doubles(b.get("values"));
  if (va.empty() || vb.empty()) return "unresolved";
  const double sign = m.better == Better::kLower ? 1.0 : -1.0;
  const double ma = util::median(va);
  const double tolerance = bound * std::abs(ma);
  const double worse_by = sign * (util::median(vb) - ma);
  const auto [a1, a3] = quartiles(va);
  const auto [b1, b3] = quartiles(vb);
  const auto [min_a, max_a] = std::minmax_element(va.begin(), va.end());
  const auto [min_b, max_b] = std::minmax_element(vb.begin(), vb.end());
  const bool separated = *max_b < *min_a || *max_a < *min_b;
  if (std::max(a3 - a1, b3 - b1) > tolerance && !separated) return "unresolved";
  if (worse_by > tolerance) return "worse";
  if (-worse_by > tolerance) return "better";
  return "same";
}

int compare(const std::string& path_a, const std::string& path_b) {
  const auto bench_json = util::read_file_if_exists("BENCHMARK.json");
  if (!bench_json.has_value()) {
    std::cerr << "nada_bench compare: run from the repository root "
                 "(BENCHMARK.json holds the bounds)\n";
    return 2;
  }
  const util::JsonValue benchmark = util::JsonValue::parse(*bench_json);
  std::map<std::string, double> bounds;
  for (const auto& m : benchmark.get("end_to_end").items()) {
    bounds[m.get("name").as_string()] = m.get("bound").as_number();
  }
  const util::JsonValue a = util::JsonValue::parse(util::read_file(path_a));
  const util::JsonValue b = util::JsonValue::parse(util::read_file(path_b));
  bool regressed = false;
  for (const WorkloadInfo& w : all_workloads()) {
    const util::JsonValue& wa = a.get("workloads").get(w.name);
    const util::JsonValue& wb = b.get("workloads").get(w.name);
    if (wa.is_null() || wb.is_null()) continue;
    std::cout << w.name << ":";
    for (const EndToEnd& m : kEndToEnd) {
      const auto bound = bounds.find(m.name);
      if (bound == bounds.end()) continue;
      const util::JsonValue& ma = wa.get("end_to_end").get(m.name);
      const util::JsonValue& mb = wb.get("end_to_end").get(m.name);
      const std::string v = verdict(m, bound->second, ma, mb);
      regressed = regressed || v == "worse";
      std::cout << "  " << m.name << " " << ma.get("median").as_number()
                << " -> " << mb.get("median").as_number() << " " << v;
    }
    const double errors_a =
        wa.get("end_to_end").get("error_rate").get("median").as_number();
    const double errors_b =
        wb.get("end_to_end").get("error_rate").get("median").as_number();
    const bool more_errors = errors_b > errors_a;
    regressed = regressed || more_errors;
    std::cout << "  error_rate " << errors_a << " -> " << errors_b
              << (more_errors ? " worse" : " same") << "\n";
  }
  return regressed ? 1 : 0;
}

// ---- main -------------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "nada_bench: " << error << "\n"
            << "usage: nada_bench [--workload NAME|all] [--seed S]"
               " [--seconds T] [--trace 0|1] [--out FILE]\n"
               "       nada_bench compare A.json B.json\n"
               "workloads:";
  for (const auto& w : all_workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--workload") options.workload = value(i);
      else if (flag == "--seed") options.seed = std::stoull(value(i));
      else if (flag == "--seconds") options.seconds = std::stod(value(i));
      else if (flag == "--trace") {
        const std::string v = value(i);
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
      } else if (flag == "--out") options.out = value(i);
      else usage("unknown argument " + flag);
    }
  } catch (const std::logic_error&) {
    usage("malformed number");
  }
  if (options.workload != "all" && find_workload(options.workload) == nullptr) {
    usage("unknown workload " + options.workload);
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be > 0");
  return options;
}

int run(const Options& options, const std::string& self_exe) {
  if (!alloc_counter_self_check()) return 3;
  become_subreaper();
  std::vector<const WorkloadInfo*> selected;
  for (const auto& w : all_workloads()) {
    if (options.workload == "all" || options.workload == w.name) {
      selected.push_back(&w);
    }
  }
  std::cout << "nada_bench: seed " << options.seed << ", " << options.seconds
            << " s per workload, " << run_threads() << " threads, "
            << nn::kernel_flavor_name(nn::kernel_flavor()) << " kernels\n";
  std::map<std::string, WorkloadResult> results;
  for (const WorkloadInfo* w : selected) {
    WorkloadBench bench(*w, options, self_exe);
    results[w->name] = bench.run();
    print_workload(w->name, results[w->name]);
  }
  std::filesystem::remove_all(".bench_build/nada_bench/work-" +
                              std::to_string(::getpid()));

  util::JsonValue doc = util::JsonValue::object();
  doc.set("seed", util::JsonValue::number(static_cast<double>(options.seed)));
  doc.set("seconds", util::JsonValue::number(options.seconds));
  doc.set("threads", util::JsonValue::number(static_cast<double>(run_threads())));
  doc.set("kernel_flavor",
          util::JsonValue::string(nn::kernel_flavor_name(nn::kernel_flavor())));
  util::JsonValue workloads = util::JsonValue::object();
  bool correct = true;
  for (const auto& [name, r] : results) {
    workloads.set(name, workload_json(r));
    correct = correct && r.correct();
  }
  doc.set("workloads", std::move(workloads));
  util::ensure_directories(util::parent_directory(options.out));
  util::write_file_atomic(options.out, doc.dump() + "\n");
  std::cout << "wrote " << options.out << "\n"
            << result_line(results, options.trace) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace nada::bench

int main(int argc, char** argv) {
  using namespace nada::bench;
  try {
    if (argc > 1 && std::string(argv[1]) == "worker") {
      return worker_main(argc, argv);
    }
    if (argc > 1 && std::string(argv[1]) == "compare") {
      if (argc != 4) usage("compare takes two result files");
      return compare(argv[2], argv[3]);
    }
    return run(parse_args(argc, argv),
               std::filesystem::read_symlink("/proc/self/exe").string());
  } catch (const std::exception& e) {
    std::cerr << "nada_bench: " << e.what() << "\n";
    return 1;
  }
}
