// Bit-exact digests of observation frames, for the frame goldens in
// env_test and cc_test.
//
// A digest folds every slot of a frame (name, kind, size and each double's
// bits) and every step's reward bits and done flag into one hex string, so
// a change that moves any frame value, reward, episode length or RNG draw
// moves it. Only env::TaskDomain, env::Episode and dsl::BindingCatalog are
// used, so the same digests can be computed on either side of a refactor
// of the environments behind them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "dsl/binding_catalog.h"
#include "env/domain.h"
#include "util/rng.h"
#include "util/strings.h"

namespace nada::test {

class FrameDigest {
 public:
  void add_u64(std::uint64_t value) {
    hash_(std::string_view(reinterpret_cast<const char*>(&value),
                           sizeof value));
  }

  void add_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add_u64(bits);
  }

  void add_text(std::string_view text) {
    add_u64(text.size());
    hash_(text);
  }

  void add_frame(const dsl::Bindings& frame) {
    add_u64(frame.size());
    for (std::size_t slot = 0; slot < frame.size(); ++slot) {
      const dsl::Value& value = frame[slot];
      add_text(frame.vocabulary()[slot].name);
      add_u64(value.is_vector() ? 1 : 0);
      add_u64(value.size());
      if (value.is_vector()) {
        for (const double x : value.as_vector()) add_double(x);
      } else {
        add_double(value.as_scalar());
      }
    }
  }

  void add_step(const env::DomainStep& step) {
    add_double(step.reward);
    add_u64(step.done ? 1 : 0);
  }

  [[nodiscard]] std::string hex() const {
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(hash_.first()),
                  static_cast<unsigned long long>(hash_.second()));
    return buf;
  }

 private:
  util::Fnv1a64Pair hash_{0x6672616d65ULL, 0x676f6c64656eULL};
};

/// Runs `episode` to its end, folding the frame after reset() and after
/// every step together with the step's reward and done flag. The action at
/// step t is (7t + salt) mod num_actions.
inline void fold_episode(FrameDigest& digest, env::Episode& episode,
                         std::size_t num_actions, std::size_t salt) {
  const dsl::Bindings& frame = episode.reset();
  digest.add_frame(frame);
  for (std::size_t step = 0; !episode.done(); ++step) {
    digest.add_step(episode.step((step * 7 + salt) % num_actions));
    digest.add_frame(frame);
  }
}

/// Folds `episodes` training episodes of `domain` and its first `episodes`
/// eval units, all drawing from one stream seeded with `seed`.
inline void fold_domain(FrameDigest& digest, const env::TaskDomain& domain,
                        env::Fidelity fidelity, std::uint64_t seed,
                        std::size_t episodes) {
  util::Rng rng(seed);
  for (std::size_t i = 0; i < episodes; ++i) {
    const auto episode = domain.start_train_episode(fidelity, rng);
    fold_episode(digest, *episode, domain.num_actions(), i);
  }
  const std::size_t units = std::min(episodes, domain.num_eval_units());
  for (std::size_t unit = 0; unit < units; ++unit) {
    const auto episode = domain.start_eval_episode(unit, fidelity, rng);
    fold_episode(digest, *episode, domain.num_actions(), unit + 3);
  }
}

/// Folds the catalog's canned() frame and 64 fuzz() frames drawn from one
/// stream seeded with `seed`.
inline void fold_catalog(FrameDigest& digest,
                         const dsl::BindingCatalog& catalog,
                         std::uint64_t seed) {
  digest.add_frame(catalog.canned());
  util::Rng rng(seed);
  for (int i = 0; i < 64; ++i) digest.add_frame(catalog.fuzz(rng));
}

}  // namespace nada::test
