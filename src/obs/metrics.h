// MetricsRegistry: named counters, gauges, and fixed-bucket histograms.
//
// The registry is the in-process metrics surface of a long search: hot
// paths hold a Counter/Gauge/Histogram handle (a stable pointer — the
// registry never moves an instrument once created) and update it with a
// single relaxed atomic operation; anything that wants a consistent view
// calls snapshot(), which serializes every instrument into one
// util::JsonValue object with deterministically ordered keys. Instruments
// are created on first use (`registry.counter("store.lookups")`) and live
// for the registry's lifetime.
//
// Everything here is observability-only by design: no instrument feeds any
// search decision, so a run with a registry attached everywhere is
// bit-identical (rankings, journal records) to a run with none — the
// invariant tests/obs_test.cpp and CI's observability smoke run pin.
//
// Thread-safety: instrument updates are lock-free atomics; instrument
// creation and snapshot() take one registry mutex. Histogram observations
// touch a handful of atomics (bucket, count, sum, min/max CAS) — cheap
// enough for per-store-lookup use, not meant for per-matrix-element use.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace nada::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (rates, positions, ratios).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: cumulative-style buckets over caller-supplied
/// upper bounds plus an implicit +inf overflow bucket, with running
/// count/sum/min/max. Bounds are fixed at creation — no rebucketing, no
/// allocation on the observe path.
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// +inf / -inf when nothing was observed yet.
  [[nodiscard]] double min() const {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; index bounds().size() is the +inf overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;  ///< ascending upper bounds
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// The default histogram bounds: wall-clock seconds from 0.1 ms to 5 min,
/// roughly 1-3-10 spaced — wide enough for a store lookup and a full
/// training stage on one scale.
[[nodiscard]] std::span<const double> duration_bounds();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument. Returned references stay valid
  /// (and stay the same instrument) for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` applies only when the histogram is created by this call;
  /// an existing histogram keeps its original buckets.
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds = duration_bounds());

  /// One consistent JSON object:
  ///   {"counters": {name: n, ...},
  ///    "gauges": {name: x, ...},
  ///    "histograms": {name: {"count": n, "sum": s, "min": m, "max": M,
  ///                          "buckets": [{"le": bound, "count": n}, ...,
  ///                                      {"le": "inf", "count": n}]}}}
  /// Keys are sorted (std::map), so two snapshots of equal state dump to
  /// equal bytes.
  [[nodiscard]] util::JsonValue snapshot() const;

 private:
  mutable std::mutex mutex_;
  // node-based maps: instrument addresses are stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Null-tolerant handle helper: the hot paths carry an optional registry
/// and resolve instruments through these, so "metrics off" costs one
/// branch.
[[nodiscard]] inline Histogram* maybe_histogram(
    MetricsRegistry* registry, std::string_view name,
    std::span<const double> bounds = duration_bounds()) {
  return registry != nullptr ? &registry->histogram(name, bounds) : nullptr;
}
[[nodiscard]] inline Counter* maybe_counter(MetricsRegistry* registry,
                                            std::string_view name) {
  return registry != nullptr ? &registry->counter(name) : nullptr;
}

}  // namespace nada::obs
