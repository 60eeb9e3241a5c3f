#include "cc/cc_state.h"

namespace nada::cc {

const dsl::Vocabulary& cc_input_variables() {
  // Slot order: fill_cc_frame writes the slots in this order, and cc_test
  // pins every name against its CcObservation field.
  static const dsl::Vocabulary kVars({
      {"send_rate_mbps", true},   {"ack_rate_mbps", true},
      {"rtt_ms", true},           {"loss_fraction", true},
      {"min_rtt_ms", false},      {"current_rate_mbps", false},
  });
  return kVars;
}

void fill_cc_frame(const CcObservation& obs, dsl::Bindings& frame) {
  frame[0].mutable_vector() = obs.send_rate_mbps;
  frame[1].mutable_vector() = obs.ack_rate_mbps;
  frame[2].mutable_vector() = obs.rtt_ms;
  frame[3].mutable_vector() = obs.loss_fraction;
  frame[4].set_scalar(obs.min_rtt_ms);
  frame[5].set_scalar(obs.current_rate_mbps);
}

dsl::Bindings bindings_from_cc_observation(const CcObservation& obs) {
  dsl::Bindings frame(cc_input_variables());
  fill_cc_frame(obs, frame);
  return frame;
}

const std::string& default_cc_state_source() {
  static const std::string kSource = R"(# Hand-written CC state: normalized rates, RTT inflation, loss history.
emit "rate" = log1p(current_rate_mbps) / 6.0;
emit "ack_rate" = log1p(ack_rate_mbps) / 6.0;
emit "utilization" = min(ack_rate_mbps / max(send_rate_mbps, vec(8, 0.001)), vec(8, 2.0));
emit "rtt_inflation" = rtt_ms / min_rtt_ms / 10.0;
emit "loss" = loss_fraction;
emit "rtt_trend" = trend(rtt_ms) / min_rtt_ms;
)";
  return kSource;
}

CcObservation canned_cc_observation() {
  CcObservation obs;
  obs.send_rate_mbps = {2.0, 2.3, 2.6, 3.0, 2.8, 3.2, 3.0, 3.4};
  obs.ack_rate_mbps = {1.9, 2.2, 2.5, 2.7, 2.6, 2.9, 2.8, 3.0};
  obs.rtt_ms = {48.0, 52.0, 55.0, 61.0, 58.0, 64.0, 60.0, 66.0};
  obs.loss_fraction = {0.0, 0.0, 0.01, 0.0, 0.02, 0.0, 0.0, 0.01};
  obs.min_rtt_ms = 40.0;
  obs.current_rate_mbps = 3.4;
  return obs;
}

CcObservation fuzz_cc_observation(util::Rng& rng) {
  CcObservation obs;
  // Wide but physical ranges, mirroring the ABR fuzz: the check must
  // surface raw-unit features (kbps rates, millisecond RTTs) while
  // well-normalized designs stay clear of the threshold. RTTs are the
  // base RTT plus queueing bounded by a deep (400 ms) buffer, so
  // inflation-style features see at most ~81x min RTT.
  const bool high_bandwidth = rng.bernoulli(0.5);
  const double rate_cap_mbps = high_bandwidth ? 500.0 : 20.0;
  const double base_rtt_ms = rng.uniform(5.0, 200.0);
  obs.send_rate_mbps.resize(kCcHistoryLen);
  obs.ack_rate_mbps.resize(kCcHistoryLen);
  obs.rtt_ms.resize(kCcHistoryLen);
  obs.loss_fraction.resize(kCcHistoryLen);
  for (std::size_t i = 0; i < kCcHistoryLen; ++i) {
    obs.send_rate_mbps[i] = rng.uniform(0.05, rate_cap_mbps);
    obs.ack_rate_mbps[i] = rng.uniform(0.0, obs.send_rate_mbps[i]);
    obs.rtt_ms[i] = base_rtt_ms + rng.uniform(0.0, 400.0) + rng.uniform(0.0, 1.0);
    obs.loss_fraction[i] = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 1.0);
  }
  obs.min_rtt_ms = base_rtt_ms;
  obs.current_rate_mbps = rng.uniform(0.05, rate_cap_mbps);
  return obs;
}

namespace {

class CcBindingCatalog final : public dsl::BindingCatalog {
 public:
  [[nodiscard]] const std::string& domain() const override {
    static const std::string kDomain = "cc";
    return kDomain;
  }
  [[nodiscard]] const dsl::Vocabulary& variables() const override {
    return cc_input_variables();
  }
  [[nodiscard]] dsl::Bindings canned() const override {
    return bindings_from_cc_observation(canned_cc_observation());
  }
  [[nodiscard]] dsl::Bindings fuzz(util::Rng& rng) const override {
    return bindings_from_cc_observation(fuzz_cc_observation(rng));
  }
};

}  // namespace

const dsl::BindingCatalog& cc_catalog() {
  static const CcBindingCatalog kCatalog;
  return kCatalog;
}

}  // namespace nada::cc
