// Streaming stage events for the search funnel.
//
// A SearchJob fires an event for every stage transition (with wall-clock
// timing) and for every candidate milestone — entered the stream, served
// from the store cache, failed a check or blew up in training, probed,
// early-stopped, fully trained, or skipped as outside the job's fingerprint
// range ("out-of-shard", a name kept for published output). Observers get
// live progress instead of only the final result: CLIs print funnel lines
// as they happen, tests assert stage coverage, services export counters.
//
// Threading: every event — stage start/finish, window, and candidate —
// fires on the thread stepping the job, in stream order, whatever the
// job's thread pool (pool threads only compute; the stepping thread
// applies and announces their results). Dispatch is additionally guarded
// by the job's mutex.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace nada::search {

/// The funnel's stages, in execution order. kGenerate pulls the candidate
/// stream and computes content fingerprints; kPrecheck runs compile /
/// normalization trial runs; kProbe early-trains the survivors; kBaseline
/// trains the domain's original design; kSelect applies early stopping and
/// takes the full-training slots; kFullTrain trains the selected designs
/// across seeds; kRank computes the final ordering. kDone is the terminal
/// marker (never executed).
enum class StageKind {
  kGenerate = 0,
  kPrecheck,
  kProbe,
  kBaseline,
  kSelect,
  kFullTrain,
  kRank,
  kDone,
};

[[nodiscard]] constexpr const char* stage_label(StageKind stage) {
  switch (stage) {
    case StageKind::kGenerate: return "generate";
    case StageKind::kPrecheck: return "precheck";
    case StageKind::kProbe: return "probe";
    case StageKind::kBaseline: return "baseline";
    case StageKind::kSelect: return "select";
    case StageKind::kFullTrain: return "full-train";
    case StageKind::kRank: return "rank";
    case StageKind::kDone: return "done";
  }
  return "?";
}

enum class CandidateEventType {
  kEntered,       ///< joined the stream (kGenerate)
  kOutOfShard,    ///< outside this job's fingerprint range; skipped entirely
  kCacheHit,      ///< stage result served from the candidate store
  kFailed,        ///< failed a pre-check, or blew up during the probe
  kProbed,        ///< early-training probe completed
  kEarlyStopped,  ///< probed but filtered out before full training
  kTrained,       ///< full-scale training completed
};

[[nodiscard]] constexpr const char* event_label(CandidateEventType type) {
  switch (type) {
    case CandidateEventType::kEntered: return "entered";
    case CandidateEventType::kOutOfShard: return "out-of-shard";
    case CandidateEventType::kCacheHit: return "cache-hit";
    case CandidateEventType::kFailed: return "failed";
    case CandidateEventType::kProbed: return "probed";
    case CandidateEventType::kEarlyStopped: return "early-stopped";
    case CandidateEventType::kTrained: return "trained";
  }
  return "?";
}

struct CandidateEvent {
  CandidateEventType type = CandidateEventType::kEntered;
  StageKind stage = StageKind::kGenerate;  ///< stage that produced the event
  std::size_t index = 0;                   ///< stream position
  std::string id;
  std::string detail;  ///< failure reason / score summary, may be empty
};

struct StageEvent {
  StageKind stage = StageKind::kGenerate;
  double seconds = 0.0;  ///< wall-clock spent in the stage
};

/// One rolling window's trip through generate -> precheck -> probe -> fold
/// (streaming jobs only; batch jobs never fire window events). `retained`
/// is the running-selection size after the fold — how many candidates
/// survive in memory across windows.
struct WindowEvent {
  std::size_t index = 0;     ///< 0-based window number
  std::size_t first = 0;     ///< stream position of the window's first candidate
  std::size_t size = 0;      ///< candidates pulled into the window
  std::size_t retained = 0;  ///< running-selection size after the fold
  double seconds = 0.0;      ///< wall-clock from window generate to fold
};

class Observer {
 public:
  virtual ~Observer() = default;
  virtual void on_stage_start(StageKind /*stage*/) {}
  virtual void on_stage_finish(const StageEvent& /*event*/) {}
  virtual void on_candidate(const CandidateEvent& /*event*/) {}
  /// Streaming jobs only: fired when a window's first candidate is about
  /// to be pulled / after the window's state has been folded and retired.
  virtual void on_window_start(std::size_t /*index*/, std::size_t /*first*/) {}
  virtual void on_window_finish(const WindowEvent& /*event*/) {}
};

/// Prints one line per event — live funnel progress for CLIs and examples.
class StreamObserver : public Observer {
 public:
  /// `candidate_events` false keeps only the per-stage lines (quiet mode).
  explicit StreamObserver(std::ostream& out, bool candidate_events = true)
      : out_(&out), candidate_events_(candidate_events) {}

  void on_stage_start(StageKind stage) override {
    *out_ << "[search] stage " << stage_label(stage) << "...\n";
  }
  void on_stage_finish(const StageEvent& event) override {
    // util::format_duration, not raw doubles: a fast stage used to print
    // as "done in 1.2e-05s". The same formatter feeds the obs layer's
    // status snapshots, so every human-read duration matches.
    *out_ << "[search] stage " << stage_label(event.stage) << " done in "
          << util::format_duration(event.seconds) << "\n";
  }
  void on_candidate(const CandidateEvent& event) override {
    if (!candidate_events_) return;
    *out_ << "[search]   " << event.id << " " << event_label(event.type);
    if (!event.detail.empty()) *out_ << ": " << event.detail;
    *out_ << "\n";
  }
  void on_window_start(std::size_t index, std::size_t first) override {
    *out_ << "[search] window " << index << " (from candidate " << first
          << ")...\n";
  }
  void on_window_finish(const WindowEvent& event) override {
    *out_ << "[search] window " << event.index << " done: " << event.size
          << " candidates in " << util::format_duration(event.seconds) << ", "
          << event.retained << " retained\n";
  }

 private:
  std::ostream* out_;
  bool candidate_events_;
};

/// Records every event in order — the coverage-assertion observer the test
/// suite uses to pin that no stage or candidate milestone goes silent.
class RecordingObserver : public Observer {
 public:
  void on_stage_start(StageKind stage) override { started.push_back(stage); }
  void on_stage_finish(const StageEvent& event) override {
    finished.push_back(event);
  }
  void on_candidate(const CandidateEvent& event) override {
    candidates.push_back(event);
  }
  void on_window_start(std::size_t index, std::size_t first) override {
    window_starts.push_back({index, first});
  }
  void on_window_finish(const WindowEvent& event) override {
    windows.push_back(event);
  }

  [[nodiscard]] std::size_t count(CandidateEventType type) const {
    std::size_t n = 0;
    for (const auto& e : candidates) {
      if (e.type == type) ++n;
    }
    return n;
  }

  std::vector<StageKind> started;
  std::vector<StageEvent> finished;
  std::vector<CandidateEvent> candidates;
  std::vector<std::pair<std::size_t, std::size_t>> window_starts;
  std::vector<WindowEvent> windows;
};

}  // namespace nada::search
