#include "rl/session.h"

#include <algorithm>

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

SessionResult run_sessions(const env::TaskDomain& domain,
                           const dsl::StateProgram& program,
                           const nn::ArchSpec& spec,
                           const SessionConfig& config,
                           std::uint64_t base_seed, util::ThreadPool* pool) {
  if (config.seeds == 0) {
    throw std::invalid_argument("run_sessions: zero seeds");
  }
  std::vector<TrainResult> sessions(config.seeds);
  auto run_one = [&](std::size_t i) {
    Trainer trainer(domain, config.train,
                    base_seed + 0x9e3779b9ULL * (i + 1));
    sessions[i] = trainer.train(program, spec);
  };
  if (pool != nullptr && config.seeds > 1) {
    pool->parallel_for(config.seeds, run_one);
  } else {
    for (std::size_t i = 0; i < config.seeds; ++i) run_one(i);
  }
  return aggregate_sessions(std::move(sessions),
                            config.train.emulation_final_eval);
}

std::vector<SessionResult> run_session_batch(const env::TaskDomain& domain,
                                             const std::vector<SessionJob>& jobs,
                                             const SessionConfig& config,
                                             util::ThreadPool* pool) {
  if (config.seeds == 0) {
    throw std::invalid_argument("run_session_batch: zero seeds");
  }
  for (const auto& job : jobs) {
    if (job.program == nullptr || job.spec == nullptr) {
      throw std::invalid_argument("run_session_batch: null job member");
    }
  }
  // Flatten (job, seed) into one task list.
  std::vector<std::vector<TrainResult>> per_job(jobs.size());
  for (auto& v : per_job) v.resize(config.seeds);
  const std::size_t total = jobs.size() * config.seeds;
  auto run_one = [&](std::size_t flat) {
    const std::size_t j = flat / config.seeds;
    const std::size_t s = flat % config.seeds;
    Trainer trainer(domain, config.train,
                    jobs[j].base_seed + 0x9e3779b9ULL * (s + 1));
    per_job[j][s] = trainer.train(*jobs[j].program, *jobs[j].spec);
  };
  if (pool != nullptr && total > 1) {
    pool->parallel_for(total, run_one);
  } else {
    for (std::size_t i = 0; i < total; ++i) run_one(i);
  }
  std::vector<SessionResult> results;
  results.reserve(jobs.size());
  for (auto& sessions : per_job) {
    results.push_back(aggregate_sessions(std::move(sessions),
                                         config.train.emulation_final_eval));
  }
  return results;
}

}  // namespace nada::rl
