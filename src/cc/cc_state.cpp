#include "cc/cc_state.h"

namespace nada::cc {

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
    dsl::Bindings frame(cc_input_variables());
    frame[kSendRateMbps].mutable_vector() = {2.0, 2.3, 2.6, 3.0,
                                             2.8, 3.2, 3.0, 3.4};
    frame[kAckRateMbps].mutable_vector() = {1.9, 2.2, 2.5, 2.7,
                                            2.6, 2.9, 2.8, 3.0};
    frame[kRttMs].mutable_vector() = {48.0, 52.0, 55.0, 61.0,
                                      58.0, 64.0, 60.0, 66.0};
    frame[kLossFraction].mutable_vector() = {0.0,  0.0, 0.01, 0.0,
                                             0.02, 0.0, 0.0,  0.01};
    frame[kMinRttMs].set_scalar(40.0);
    frame[kCurrentRateMbps].set_scalar(3.4);
    return frame;
  }

  [[nodiscard]] dsl::Bindings fuzz(util::Rng& rng) const override {
    dsl::Bindings frame(cc_input_variables());
    // Wide but physical ranges, mirroring the ABR fuzz: the check must
    // surface raw-unit features (kbps rates, millisecond RTTs) while
    // well-normalized designs stay clear of the threshold. RTTs are the
    // base RTT plus queueing bounded by a deep (400 ms) buffer, so
    // inflation-style features see at most ~81x min RTT.
    const bool high_bandwidth = rng.bernoulli(0.5);
    const double rate_cap_mbps = high_bandwidth ? 500.0 : 20.0;
    const double base_rtt_ms = rng.uniform(5.0, 200.0);
    std::vector<double>& send = frame[kSendRateMbps].mutable_vector();
    std::vector<double>& ack = frame[kAckRateMbps].mutable_vector();
    std::vector<double>& rtt = frame[kRttMs].mutable_vector();
    std::vector<double>& loss = frame[kLossFraction].mutable_vector();
    send.resize(kCcHistoryLen);
    ack.resize(kCcHistoryLen);
    rtt.resize(kCcHistoryLen);
    loss.resize(kCcHistoryLen);
    for (std::size_t i = 0; i < kCcHistoryLen; ++i) {
      send[i] = rng.uniform(0.05, rate_cap_mbps);
      ack[i] = rng.uniform(0.0, send[i]);
      rtt[i] = base_rtt_ms + rng.uniform(0.0, 400.0) + rng.uniform(0.0, 1.0);
      loss[i] = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 1.0);
    }
    frame[kMinRttMs].set_scalar(base_rtt_ms);
    frame[kCurrentRateMbps].set_scalar(rng.uniform(0.05, rate_cap_mbps));
    return frame;
  }
};

}  // namespace

const dsl::BindingCatalog& cc_catalog() {
  static const CcBindingCatalog kCatalog;
  return kCatalog;
}

}  // namespace nada::cc
