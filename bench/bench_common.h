// Shared helpers for the experiment benches. Every table/figure binary
// prints the paper's reported values next to the measured ones and writes
// machine-readable CSVs under bench_results/.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/metrics.h"
#include "util/fs.h"
#include "util/scale.h"
#include "util/table.h"

namespace nada::bench {

/// Prints the standard bench banner (name + scale factors in effect).
inline void banner(const std::string& name, const util::ScaleConfig& scale) {
  std::cout << "\n############################################################\n"
            << "# " << name << "\n"
            << "# " << scale.describe()
            << "  (override via NADA_SCALE_GEN / _EPOCHS / _SEEDS / _TRACES /"
            << " _MODEL;"
            << " 1.0 = paper scale)\n"
            << "############################################################\n";
}

/// Where CSV artifacts land.
inline std::string results_path(const std::string& filename) {
  return "bench_results/" + filename;
}

inline void save_csv(const std::string& filename,
                     const util::TextTable& table) {
  const std::string path = results_path(filename);
  util::write_file(path, table.to_csv());
  std::cout << "[csv] wrote " << path << "\n";
}

/// Opt-in bench profiling: when NADA_BENCH_METRICS is a non-empty path,
/// returns a registry for the bench to wire into its jobs (JobOptions /
/// ShardRunnerConfig metrics). Pure readout — a bench's measured numbers
/// and CSVs are unaffected; only the snapshot file appears.
inline obs::MetricsRegistry* bench_metrics() {
  const char* path = std::getenv("NADA_BENCH_METRICS");
  if (path == nullptr || *path == '\0') return nullptr;
  static obs::MetricsRegistry registry;
  return &registry;
}

/// Dumps the bench_metrics() snapshot to $NADA_BENCH_METRICS (suffixing
/// `tag` before the extension when given, so multi-phase benches can emit
/// one file per phase). No-op when the knob is unset.
inline void dump_bench_metrics(const std::string& tag = "") {
  obs::MetricsRegistry* registry = bench_metrics();
  if (registry == nullptr) return;
  std::string path = std::getenv("NADA_BENCH_METRICS");
  if (!tag.empty()) {
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.rfind('/');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
      path.insert(dot, "-" + tag);
    } else {
      path += "-" + tag;
    }
  }
  util::ensure_directories(util::parent_directory(path));
  util::write_file_atomic(path, registry->snapshot().dump() + "\n");
  std::cout << "[metrics] wrote " << path << "\n";
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace nada::bench
