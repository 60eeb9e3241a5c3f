#include "env/abr_domain.h"

#include <stdexcept>

#include "dsl/state_program.h"
#include "util/strings.h"

namespace nada::env {

namespace {

class AbrBindingCatalog final : public dsl::BindingCatalog {
 public:
  [[nodiscard]] const std::string& domain() const override {
    static const std::string kDomain = "abr";
    return kDomain;
  }
  [[nodiscard]] const dsl::Vocabulary& variables() const override {
    return input_variables();
  }

  [[nodiscard]] dsl::Bindings canned() const override {
    dsl::Bindings frame(input_variables());
    frame[kThroughputMbps].mutable_vector() = {2.1, 1.8, 2.4, 2.2,
                                               1.9, 2.6, 2.3, 2.0};
    frame[kDownloadTimeS].mutable_vector() = {1.5, 1.9, 1.3, 1.4,
                                              1.8, 1.2, 1.5, 1.6};
    frame[kBufferSizeSHistory].mutable_vector() = {8.0,  9.5,  11.0, 12.2,
                                                   13.0, 13.5, 14.1, 14.8};
    frame[kNextChunkSizesBytes].mutable_vector() = {
        150000, 375000, 600000, 925000, 1425000, 2150000};
    frame[kBitrateLevelsKbps].mutable_vector() = {300,  750,  1200,
                                                  1850, 2850, 4300};
    frame[kBufferSizeS].set_scalar(14.8);
    frame[kChunksRemaining].set_scalar(30.0);
    frame[kTotalChunks].set_scalar(48.0);
    frame[kLastBitrateKbps].set_scalar(1200.0);
    frame[kChunkLengthS].set_scalar(4.0);
    frame[kMaxBitrateKbps].set_scalar(4300.0);
    return frame;
  }

  [[nodiscard]] dsl::Bindings fuzz(util::Rng& rng) const override {
    dsl::Bindings frame(input_variables());
    // Wide but physical ranges: the point of the fuzz check is to surface
    // features that blow past the threshold once realistic magnitudes
    // (bytes, kbps) flow through un-normalized code paths.
    const bool high_bandwidth = rng.bernoulli(0.5);
    const double bw_cap_mbps = high_bandwidth ? 400.0 : 10.0;
    std::vector<double>& throughput =
        frame[kThroughputMbps].mutable_vector();
    std::vector<double>& download = frame[kDownloadTimeS].mutable_vector();
    std::vector<double>& buffer = frame[kBufferSizeSHistory].mutable_vector();
    throughput.resize(kHistoryLen);
    download.resize(kHistoryLen);
    buffer.resize(kHistoryLen);
    for (std::size_t i = 0; i < kHistoryLen; ++i) {
      throughput[i] = rng.uniform(0.05, bw_cap_mbps);
      download[i] = rng.uniform(0.05, 40.0);
      buffer[i] = rng.uniform(0.0, 60.0);
    }
    std::vector<double>& ladder = frame[kBitrateLevelsKbps].mutable_vector();
    if (high_bandwidth) {
      ladder = {1850, 2850, 4300, 12000, 24000, 53000};
    } else {
      ladder = {300, 750, 1200, 1850, 2850, 4300};
    }
    std::vector<double>& next = frame[kNextChunkSizesBytes].mutable_vector();
    next.resize(ladder.size());
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      next[i] = ladder[i] * 1000.0 / 8.0 * 4.0 * rng.uniform(0.7, 1.3);
    }
    frame[kBufferSizeS].set_scalar(rng.uniform(0.0, 60.0));
    frame[kTotalChunks].set_scalar(48.0);
    frame[kChunksRemaining].set_scalar(rng.uniform(0.0, 48.0));
    frame[kLastBitrateKbps].set_scalar(
        ladder[static_cast<std::size_t>(rng.uniform_int(0, 5))]);
    frame[kChunkLengthS].set_scalar(4.0);
    frame[kMaxBitrateKbps].set_scalar(ladder.back());
    return frame;
  }
};

}  // namespace

const dsl::BindingCatalog& abr_catalog() {
  static const AbrBindingCatalog kCatalog;
  return kCatalog;
}

AbrDomain::AbrDomain(const trace::Dataset& dataset, const video::Video& video)
    : dataset_(&dataset), video_(&video) {
  if (dataset_->train.empty() || dataset_->test.empty()) {
    throw std::invalid_argument("AbrDomain: dataset has an empty split");
  }
}

const std::string& AbrDomain::name() const {
  static const std::string kName = "abr";
  return kName;
}

const dsl::BindingCatalog& AbrDomain::catalog() const { return abr_catalog(); }

std::size_t AbrDomain::num_actions() const {
  return video_->ladder().levels();
}

std::size_t AbrDomain::episode_length() const {
  return video_->num_chunks();
}

double AbrDomain::reward_scale_hint() const {
  // QoE_lin's magnitude tracks the ladder's top bitrate in Mbps (the 53
  // Mbps YouTube ladder scores ~12x Pensieve's).
  return video_->ladder().max_kbps() / 1000.0;
}

const std::string& AbrDomain::baseline_state_source() const {
  return dsl::pensieve_state_source();
}

std::unique_ptr<Episode> AbrDomain::start_train_episode(
    Fidelity fidelity, util::Rng& rng) const {
  const trace::Trace& tr = rng.choice(dataset_->train);
  return std::make_unique<AbrEnv>(tr, *video_, fidelity, rng);
}

std::size_t AbrDomain::num_eval_units() const { return dataset_->test.size(); }

std::unique_ptr<Episode> AbrDomain::start_eval_episode(
    std::size_t unit, Fidelity fidelity, util::Rng& rng) const {
  return std::make_unique<AbrEnv>(dataset_->test.at(unit), *video_,
                                  fidelity, rng);
}

std::string AbrDomain::scope_env() const {
  // The pre-domain pipeline used the bare trace-environment name; keeping
  // it means every journal written before this refactor stays in scope.
  return trace::environment_name(dataset_->spec.env);
}

void AbrDomain::append_scope_spec(std::ostream& out) const {
  // Results are only reusable against the same traces and video: two
  // datasets of the same environment (different scale or build seed) must
  // not alias in the store.
  const auto fold = [](std::uint64_t h, std::string_view text) {
    return util::mix64(h ^ util::fnv1a64(text));
  };
  out << ";train_traces=" << trace::traces_digest(dataset_->train)
      << ";test_traces=" << trace::traces_digest(dataset_->test);
  std::uint64_t vh = fold(video_->num_chunks(), video_->name());
  vh = fold(vh, util::shortest_double(video_->chunk_len_s()));
  for (double kbps : video_->ladder().all_kbps()) {
    vh = fold(vh, util::shortest_double(kbps));
  }
  for (std::size_t c = 0; c < video_->num_chunks(); ++c) {
    for (double bytes : video_->chunk_bytes_all_levels(c)) {
      vh = fold(vh, util::shortest_double(bytes));
    }
  }
  out << ";video=" << vh;
}

}  // namespace nada::env
