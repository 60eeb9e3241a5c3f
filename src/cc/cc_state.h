// NadaScript bindings for congestion control.
//
// The same DSL that expresses ABR state functions expresses CC state
// functions: only the input variables change. This is the concrete form of
// the paper's claim that NADA is "applicable to any network algorithm"
// with a code implementation and a simulator (§1, §5). cc_catalog() packs
// the vocabulary into a dsl::BindingCatalog so the funnel's pre-checks
// validate CC programs against CC observations, never ABR ones.
#pragma once

#include <string>
#include <vector>

#include "cc/cc_env.h"
#include "dsl/binding_catalog.h"
#include "dsl/value.h"

namespace nada::cc {

/// The CC input variables in slot order (semantic names, as the paper's
/// prompting strategy prescribes).
[[nodiscard]] const dsl::Vocabulary& cc_input_variables();

/// `obs` written into `frame`, a frame over cc_input_variables(), in
/// place: vector slots keep their capacity.
void fill_cc_frame(const CcObservation& obs, dsl::Bindings& frame);

/// `obs` as a new frame over cc_input_variables().
[[nodiscard]] dsl::Bindings bindings_from_cc_observation(
    const CcObservation& obs);

/// A reasonable hand-written CC state (the "original design" for a CC
/// search): normalized rate, throughput, RTT inflation, and loss history.
[[nodiscard]] const std::string& default_cc_state_source();

/// A synthetic mid-episode CC observation (trial-run input for the
/// compilation check).
[[nodiscard]] CcObservation canned_cc_observation();

/// A randomized CC observation for the normalization fuzz check: rates up
/// to 500 Mbps, base RTTs from 5 to 200 ms with up to 400 ms of queueing,
/// loss fractions with a point mass at zero. RTT samples never drop below
/// the episode's min RTT, so inflation-style features stay physical.
[[nodiscard]] CcObservation fuzz_cc_observation(util::Rng& rng);

/// The CC binding catalog (vocabulary + canned/fuzz inputs, as bindings).
[[nodiscard]] const dsl::BindingCatalog& cc_catalog();

}  // namespace nada::cc
