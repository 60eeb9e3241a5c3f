#include "cc/cc_domain.h"

#include <algorithm>
#include <stdexcept>

#include "util/strings.h"

namespace nada::cc {

namespace {

class CcEpisode final : public env::Episode {
 public:
  CcEpisode(const trace::Trace& capacity, const CcConfig& config,
            util::Rng& rng)
      : env_(capacity, config, rng) {}

  const dsl::Bindings& reset() override {
    fill_cc_frame(env_.reset(), frame_);
    return frame_;
  }

  env::DomainStep step(std::size_t action) override {
    const CcStepResult sr = env_.step(action);
    fill_cc_frame(sr.observation, frame_);
    return env::DomainStep{sr.reward, sr.done};
  }

  [[nodiscard]] bool done() const override { return env_.done(); }

 private:
  CcEnv env_;
  dsl::Bindings frame_{cc_input_variables()};
};

}  // namespace

CcDomain::CcDomain(const trace::Dataset& dataset, CcConfig config)
    : dataset_(&dataset), config_(config) {
  if (dataset_->train.empty() || dataset_->test.empty()) {
    throw std::invalid_argument("CcDomain: dataset has an empty split");
  }
  if (config_.interval_s <= 0.0 || config_.steps_per_episode == 0) {
    throw std::invalid_argument("CcDomain: degenerate CcConfig");
  }
}

const std::string& CcDomain::name() const {
  static const std::string kName = "cc";
  return kName;
}

const dsl::BindingCatalog& CcDomain::catalog() const { return cc_catalog(); }

std::size_t CcDomain::num_actions() const { return rate_actions().size(); }

std::size_t CcDomain::episode_length() const {
  return config_.steps_per_episode;
}

double CcDomain::reward_scale_hint() const {
  // Per-interval rewards are throughput minus latency/loss penalties, so
  // their magnitude tracks the bottleneck's capacity in Mbps. Deterministic
  // in the dataset: the mean train-trace throughput, floored at 1 Mbps so
  // starved environments do not blow gradients up.
  double sum_mbps = 0.0;
  for (const auto& t : dataset_->train) sum_mbps += t.mean_kbps() / 1000.0;
  const double mean_mbps =
      sum_mbps / static_cast<double>(dataset_->train.size());
  return std::max(mean_mbps, 1.0);
}

const std::string& CcDomain::baseline_state_source() const {
  return default_cc_state_source();
}

std::unique_ptr<env::Episode> CcDomain::start_train_episode(
    env::Fidelity /*fidelity*/, util::Rng& rng) const {
  const trace::Trace& tr = rng.choice(dataset_->train);
  return std::make_unique<CcEpisode>(tr, config_, rng);
}

std::size_t CcDomain::num_eval_units() const { return dataset_->test.size(); }

std::unique_ptr<env::Episode> CcDomain::start_eval_episode(
    std::size_t unit, env::Fidelity /*fidelity*/, util::Rng& rng) const {
  return std::make_unique<CcEpisode>(dataset_->test.at(unit), config_, rng);
}

std::string CcDomain::scope_env() const {
  // Domain-distinct token: CC journals never alias ABR journals built from
  // the same trace environment.
  return std::string("cc-") + trace::environment_name(dataset_->spec.env);
}

void CcDomain::append_scope_spec(std::ostream& out) const {
  out << ";cc_train_traces=" << trace::traces_digest(dataset_->train)
      << ";cc_test_traces=" << trace::traces_digest(dataset_->test)
      << ";cc_cfg=" << util::shortest_double(config_.base_rtt_ms) << ","
      << util::shortest_double(config_.queue_capacity_ms) << ","
      << util::shortest_double(config_.interval_s) << ","
      << util::shortest_double(config_.init_rate_mbps) << ","
      << util::shortest_double(config_.min_rate_mbps) << ","
      << util::shortest_double(config_.max_rate_mbps) << ","
      << util::shortest_double(config_.latency_penalty) << ","
      << util::shortest_double(config_.loss_penalty) << ","
      << config_.steps_per_episode;
}

}  // namespace nada::cc
