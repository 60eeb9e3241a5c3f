#include "rl/session.h"

#include <algorithm>

#include "rl/batch_probe.h"
#include "util/stats.h"

namespace nada::rl {

SessionResult aggregate_sessions(std::vector<TrainResult> sessions,
                                 bool emulation_eval) {
  SessionResult result;
  result.sessions = std::move(sessions);

  // Median of per-session final scores over the sessions that ran.
  std::vector<double> finals;
  for (const auto& s : result.sessions) {
    if (!s.failed) finals.push_back(s.final_score);
  }
  if (finals.empty()) {
    result.failed = true;
    result.test_score = -1e9;
    return result;
  }
  result.test_score = util::median(finals);
  if (emulation_eval) {
    std::vector<double> emu_finals;
    for (const auto& s : result.sessions) {
      if (!s.failed) emu_finals.push_back(s.emulation_score);
    }
    result.emulation_score = util::median(emu_finals);
  }

  // Median curve: align checkpoints by index (sessions share the cadence).
  std::size_t num_checkpoints = 0;
  for (const auto& s : result.sessions) {
    if (!s.failed) {
      num_checkpoints = std::max(num_checkpoints, s.test_scores.size());
    }
  }
  for (std::size_t c = 0; c < num_checkpoints; ++c) {
    std::vector<double> at_c;
    for (const auto& s : result.sessions) {
      if (!s.failed && c < s.test_scores.size()) {
        at_c.push_back(s.test_scores[c]);
      }
    }
    if (!at_c.empty()) {
      result.median_curve.push_back(util::median(at_c));
      for (const auto& s : result.sessions) {
        if (!s.failed && c < s.test_epochs.size()) {
          if (result.curve_epochs.size() <= c) {
            result.curve_epochs.push_back(s.test_epochs[c]);
          }
          break;
        }
      }
    }
  }
  return result;
}

std::vector<SessionResult> run_sessions(const env::TaskDomain& domain,
                                        const std::vector<SessionJob>& jobs,
                                        const SessionConfig& config,
                                        util::ThreadPool* pool) {
  if (config.seeds == 0) {
    throw std::invalid_argument("run_sessions: zero seeds");
  }
  std::vector<ProbeJob> flat;
  flat.reserve(jobs.size() * config.seeds);
  for (const SessionJob& job : jobs) {
    for (std::size_t s = 0; s < config.seeds; ++s) {
      flat.push_back(ProbeJob{job.program, job.spec,
                              job.base_seed + 0x9e3779b9ULL * (s + 1)});
    }
  }
  const BatchProbeTrainer engine(domain, BatchProbeConfig{config.train});
  std::vector<TrainResult> trained = engine.train(flat, pool);
  std::vector<SessionResult> results;
  results.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::vector<TrainResult> sessions(config.seeds);
    for (std::size_t s = 0; s < config.seeds; ++s) {
      sessions[s] = std::move(trained[j * config.seeds + s]);
    }
    results.push_back(aggregate_sessions(std::move(sessions),
                                         config.train.emulation_final_eval));
  }
  return results;
}

}  // namespace nada::rl
