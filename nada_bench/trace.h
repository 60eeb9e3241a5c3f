// Tracing for the benchmark's traced run: spans recorded from the
// benchmark's own code around calls into each layer's public functions, and
// the allocation counter behind the allocs_per_* metrics.
//
// A span has a name, a start, an end and the span that caused it; every
// span of one run shares the run id. Spans stay in memory and are written
// once, when the run ends, together with each span name's total and self
// time (a span's duration minus the part its child spans cover).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace nada::bench {

/// Global allocation counter (nada_bench.cpp replaces operator new). It
/// counts every allocation on every thread, but only while enabled: the
/// traced run enables it, measured runs never do.
void set_alloc_counting(bool enabled);
[[nodiscard]] std::uint64_t alloc_count();

[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  explicit SpanRecorder(std::string run_id)
      : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

  /// Seconds since the recorder was created.
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Opens a span and returns its id.
  int begin(std::string name, int parent = kNoParent) {
    spans_.push_back(Span{std::move(name), now(), -1.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }
  /// Records an already-measured interval (times on this recorder's clock).
  int add(std::string name, double start, double end, int parent) {
    spans_.push_back(Span{std::move(name), start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Runs `fn` inside a span; returns the span's duration in seconds.
  template <class F>
  double time(std::string name, int parent, F&& fn) {
    const int id = begin(std::move(name), parent);
    fn();
    end(id);
    return duration(id);
  }

  [[nodiscard]] double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  /// {"run_id", "spans": [{name, start, end, parent}], "by_name": {name:
  /// {count, total_s, self_s}}}.
  [[nodiscard]] util::JsonValue to_json() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    util::JsonValue spans = util::JsonValue::array();
    struct Totals {
      double count = 0.0, total = 0.0, self = 0.0;
    };
    std::map<std::string, Totals> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      util::JsonValue item = util::JsonValue::object();
      item.set("name", util::JsonValue::string(s.name));
      item.set("start", util::JsonValue::number(s.start));
      item.set("end", util::JsonValue::number(s.end));
      item.set("parent", util::JsonValue::number(s.parent));
      spans.push_back(std::move(item));
      Totals& t = by_name[s.name];
      t.count += 1.0;
      t.total += s.end - s.start;
      t.self += s.end - s.start - child_time[i];
    }
    util::JsonValue names = util::JsonValue::object();
    for (const auto& [name, t] : by_name) {
      util::JsonValue item = util::JsonValue::object();
      item.set("count", util::JsonValue::number(t.count));
      item.set("total_s", util::JsonValue::number(t.total));
      item.set("self_s", util::JsonValue::number(t.self));
      names.set(name, std::move(item));
    }
    util::JsonValue doc = util::JsonValue::object();
    doc.set("run_id", util::JsonValue::string(run_id_));
    doc.set("spans", std::move(spans));
    doc.set("by_name", std::move(names));
    return doc;
  }

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = kNoParent;
  };

  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace nada::bench
