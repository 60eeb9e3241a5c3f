#include "host_speed.h"

#include <sched.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

namespace nada::bench {
namespace {

constexpr int kDim = 64;
constexpr std::uint32_t kTableSize = 1U << 16;  // 256 KiB of uint32
constexpr int kWalkSteps = 20000;
/// Repetitions per measurement: about 5 ms next to a single set-up, about
/// 20 ms per CPU around a search.
constexpr int kCpuReps = 60;
constexpr int kHostReps = 250;
/// Untimed repetitions first, so the table and matrices are in cache.
constexpr int kWarmReps = 5;

struct Kernel {
  Kernel() {
    for (int i = 0; i < kDim * kDim; ++i) {
      a[i] = static_cast<float>(i % 13) * 0.01F;
      b[i] = static_cast<float>(i % 7) * 0.02F;
    }
    for (std::uint32_t i = 0; i < kTableSize; ++i) {
      next[i] = (i * 2654435761U) & (kTableSize - 1);
    }
  }

  void run(int reps) {
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < kDim; ++i) {
        for (int k = 0; k < kDim; ++k) {
          const float x = a[i * kDim + k];
          for (int j = 0; j < kDim; ++j) c[i * kDim + j] += x * b[k * kDim + j];
        }
      }
      for (int i = 0; i < kWalkSteps; ++i) {
        at = next[at];
        hash = (hash ^ at) * 1099511628211ULL;
      }
    }
  }

  /// Seconds per repetition, after a warm-up.
  double seconds_per_rep(int reps) {
    run(kWarmReps);
    const auto start = std::chrono::steady_clock::now();
    run(reps);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    // Keeps the results observable.
    sink = c[static_cast<std::size_t>(hash % (kDim * kDim))];
    return seconds / reps;
  }

  std::array<float, kDim * kDim> a{};
  std::array<float, kDim * kDim> b{};
  std::array<float, kDim * kDim> c{};
  std::array<std::uint32_t, kTableSize> next{};
  std::uint32_t at = 0;
  std::uint64_t hash = 1469598103934665603ULL;
  volatile float sink = 0.0F;
};

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

double cpu_slowdown() {
  const auto kernel = std::make_unique<Kernel>();
  return kernel->seconds_per_rep(kCpuReps) / kReferenceKernelSeconds;
}

double host_slowdown() {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) return cpu_slowdown();
  // Allocated here, so the threads run nothing that can throw.
  std::vector<std::unique_ptr<Kernel>> kernels;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    kernels.push_back(std::make_unique<Kernel>());
  }
  std::vector<double> slowdowns(cpus.size(), 0.0);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      threads.emplace_back([&, i] {
        pin_thread({cpus[i]});
        slowdowns[i] =
            kernels[i]->seconds_per_rep(kHostReps) / kReferenceKernelSeconds;
      });
    }
  }
  double sum = 0.0;
  for (const double s : slowdowns) sum += s;
  return sum / static_cast<double>(cpus.size());
}

}  // namespace nada::bench
