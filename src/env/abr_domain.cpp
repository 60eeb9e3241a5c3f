#include "env/abr_domain.h"

#include <stdexcept>

#include "dsl/state_program.h"
#include "util/strings.h"

namespace nada::env {

const dsl::Vocabulary& input_variables() {
  // Slot order: fill_frame below writes the slots in this order, and
  // env_test pins every name against its Observation field.
  static const dsl::Vocabulary kVars({
      {"throughput_mbps", true},
      {"download_time_s", true},
      {"buffer_size_s_history", true},
      {"next_chunk_sizes_bytes", true},
      {"bitrate_levels_kbps", true},
      {"buffer_size_s", false},
      {"chunks_remaining", false},
      {"total_chunks", false},
      {"last_bitrate_kbps", false},
      {"chunk_length_s", false},
      {"max_bitrate_kbps", false},
  });
  return kVars;
}

namespace {

/// Writes `obs` into `frame`, a frame over input_variables(), in place:
/// vector slots keep their capacity.
void fill_frame(const Observation& obs, dsl::Bindings& frame) {
  frame[0].mutable_vector() = obs.throughput_mbps;
  frame[1].mutable_vector() = obs.download_time_s;
  frame[2].mutable_vector() = obs.buffer_s_history;
  frame[3].mutable_vector() = obs.next_chunk_bytes;
  frame[4].mutable_vector() = obs.ladder_kbps;
  frame[5].set_scalar(obs.buffer_s);
  frame[6].set_scalar(obs.chunks_remaining);
  frame[7].set_scalar(obs.total_chunks);
  frame[8].set_scalar(obs.last_bitrate_kbps);
  frame[9].set_scalar(obs.chunk_len_s);
  frame[10].set_scalar(obs.ladder_kbps.empty() ? 0.0
                                               : obs.ladder_kbps.back());
}

}  // namespace

dsl::Bindings bindings_from_observation(const Observation& obs) {
  dsl::Bindings frame(input_variables());
  fill_frame(obs, frame);
  return frame;
}

Observation canned_observation() {
  Observation obs;
  obs.throughput_mbps = {2.1, 1.8, 2.4, 2.2, 1.9, 2.6, 2.3, 2.0};
  obs.download_time_s = {1.5, 1.9, 1.3, 1.4, 1.8, 1.2, 1.5, 1.6};
  obs.buffer_s_history = {8.0, 9.5, 11.0, 12.2, 13.0, 13.5, 14.1, 14.8};
  obs.next_chunk_bytes = {150000, 375000, 600000, 925000, 1425000, 2150000};
  obs.ladder_kbps = {300, 750, 1200, 1850, 2850, 4300};
  obs.buffer_s = 14.8;
  obs.chunks_remaining = 30.0;
  obs.total_chunks = 48.0;
  obs.last_bitrate_kbps = 1200.0;
  obs.chunk_len_s = 4.0;
  return obs;
}

Observation fuzz_observation(util::Rng& rng) {
  Observation obs;
  // Wide but physical ranges: the point of the fuzz check is to surface
  // features that blow past the threshold once realistic magnitudes (bytes,
  // kbps) flow through un-normalized code paths.
  const bool high_bandwidth = rng.bernoulli(0.5);
  const double bw_cap_mbps = high_bandwidth ? 400.0 : 10.0;
  obs.throughput_mbps.resize(kHistoryLen);
  obs.download_time_s.resize(kHistoryLen);
  obs.buffer_s_history.resize(kHistoryLen);
  for (std::size_t i = 0; i < kHistoryLen; ++i) {
    obs.throughput_mbps[i] = rng.uniform(0.05, bw_cap_mbps);
    obs.download_time_s[i] = rng.uniform(0.05, 40.0);
    obs.buffer_s_history[i] = rng.uniform(0.0, 60.0);
  }
  if (high_bandwidth) {
    obs.ladder_kbps = {1850, 2850, 4300, 12000, 24000, 53000};
  } else {
    obs.ladder_kbps = {300, 750, 1200, 1850, 2850, 4300};
  }
  obs.next_chunk_bytes.resize(obs.ladder_kbps.size());
  for (std::size_t i = 0; i < obs.ladder_kbps.size(); ++i) {
    obs.next_chunk_bytes[i] =
        obs.ladder_kbps[i] * 1000.0 / 8.0 * 4.0 * rng.uniform(0.7, 1.3);
  }
  obs.buffer_s = rng.uniform(0.0, 60.0);
  obs.total_chunks = 48.0;
  obs.chunks_remaining = rng.uniform(0.0, obs.total_chunks);
  obs.last_bitrate_kbps =
      obs.ladder_kbps[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  obs.chunk_len_s = 4.0;
  return obs;
}

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
    return bindings_from_observation(canned_observation());
  }
  [[nodiscard]] dsl::Bindings fuzz(util::Rng& rng) const override {
    return bindings_from_observation(fuzz_observation(rng));
  }
};

class AbrEpisode final : public Episode {
 public:
  AbrEpisode(const trace::Trace& trace, const video::Video& video,
             Fidelity fidelity, util::Rng& rng)
      : env_(trace, video, fidelity, rng) {}

  const dsl::Bindings& reset() override {
    fill_frame(env_.reset(), frame_);
    return frame_;
  }

  DomainStep step(std::size_t action) override {
    const StepResult sr = env_.step(action);
    fill_frame(sr.observation, frame_);
    return DomainStep{sr.reward, sr.done};
  }

  [[nodiscard]] bool done() const override { return env_.done(); }

 private:
  AbrEnv env_;
  dsl::Bindings frame_{input_variables()};
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
  return std::make_unique<AbrEpisode>(tr, *video_, fidelity, rng);
}

std::size_t AbrDomain::num_eval_units() const { return dataset_->test.size(); }

std::unique_ptr<Episode> AbrDomain::start_eval_episode(
    std::size_t unit, Fidelity fidelity, util::Rng& rng) const {
  return std::make_unique<AbrEpisode>(dataset_->test.at(unit), *video_,
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
