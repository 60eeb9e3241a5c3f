// NadaScript bindings for congestion control.
//
// The same DSL that expresses ABR state functions expresses CC state
// functions: only the input variables change. This is the concrete form of
// the paper's claim that NADA is "applicable to any network algorithm"
// with a code implementation and a simulator (§1, §5). cc_catalog() packs
// the vocabulary cc_env.h declares, with canned and fuzz frames over it,
// into a dsl::BindingCatalog so the funnel's pre-checks validate CC
// programs against CC observations, never ABR ones.
#pragma once

#include <string>

#include "cc/cc_env.h"
#include "dsl/binding_catalog.h"

namespace nada::cc {

/// A reasonable hand-written CC state (the "original design" for a CC
/// search): normalized rate, throughput, RTT inflation, and loss history.
[[nodiscard]] const std::string& default_cc_state_source();

/// The CC binding catalog over cc_input_variables(). canned() is a
/// synthetic mid-episode observation; fuzz() draws rates up to 500 Mbps,
/// base RTTs from 5 to 200 ms with up to 400 ms of queueing, and loss
/// fractions with a point mass at zero. Its RTT samples never drop below
/// the min RTT, so inflation-style features stay physical.
[[nodiscard]] const dsl::BindingCatalog& cc_catalog();

}  // namespace nada::cc
