#include "search/shard_runner.h"

#include <memory>
#include <vector>

#include "obs/status.h"
#include "store/shard.h"
#include "util/fs.h"

namespace nada::search {

ShardRunner::ShardRunner(const env::TaskDomain& domain, SearchConfig config,
                         std::uint64_t seed, ShardRunnerConfig shards,
                         util::ThreadPool* pool)
    : domain_(&domain), config_(std::move(config)), seed_(seed),
      shards_(std::move(shards)), pool_(pool),
      scope_(store_scope(domain, config_, seed)) {
  validate_config(config_);
}

std::string ShardRunner::merged_store_path() const {
  return shards_.store_dir + "/" + scope_.env + "-" +
         scope_.config_digest.substr(0, 12) + "-merged.nsb";
}

std::string ShardRunner::merged_status_path() const {
  return merged_store_path() + ".status.json";
}

std::string ShardRunner::service_prefix() const {
  return scope_.env + "-" + scope_.config_digest.substr(0, 12) + "-svc-";
}

SearchResult ShardRunner::run_pass(CandidateSource& source,
                                   const FixedDesign& fixed,
                                   JobOptions options,
                                   const std::string& status_path,
                                   const std::string& label,
                                   const std::vector<Observer*>& observers,
                                   StageKind stop) {
  options.pool = pool_;
  options.metrics = shards_.metrics;
  // Every pass replays the stream from the start; rewinding here lets one
  // in-process generator drive several passes in a loop.
  source.reset();
  SearchJob job(*domain_, config_, seed_, source, fixed, options);
  std::unique_ptr<obs::StatusWriter> status;
  if (shards_.worker_status) {
    status = std::make_unique<obs::StatusWriter>(
        obs::StatusConfig{status_path, label, config_.num_candidates});
    job.add_observer(status.get());
  }
  for (Observer* observer : observers) job.add_observer(observer);
  SearchResult result = stop == StageKind::kDone ? job.run_to_completion()
                                                 : job.run_until(stop);
  if (status != nullptr) status->finish();
  return result;
}

SearchResult ShardRunner::run_range(const store::ShardPlan::Range& range,
                                    const std::string& journal_path,
                                    CandidateSource& source,
                                    const FixedDesign& fixed,
                                    const std::vector<Observer*>& observers) {
  const std::string parent = util::parent_directory(journal_path);
  if (!parent.empty()) util::ensure_directories(parent);
  store::CandidateStore store(journal_path, scope_);
  JobOptions options;
  options.store = &store;
  options.range = range;
  return run_pass(source, fixed, options, journal_path + ".status.json",
                  "lease-" + std::to_string(range.lo), observers,
                  StageKind::kBaseline);
}

SearchResult ShardRunner::merge_and_rank_paths(
    std::span<const std::string> journals, CandidateSource& source,
    const FixedDesign& fixed, const filter::EarlyStopModel* early_stop,
    const std::vector<Observer*>& observers) {
  util::ensure_directories(shards_.store_dir);
  store::CandidateStore merged(merged_store_path(), scope_);
  store::merge_shard_files(journals, merged);
  JobOptions options;
  options.store = &merged;
  options.early_stop_model = early_stop;
  return run_pass(source, fixed, options, merged_status_path(), "driver",
                  observers, StageKind::kDone);
}

}  // namespace nada::search
