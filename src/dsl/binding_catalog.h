// Per-domain binding catalogs.
//
// A state program is only meaningful relative to a vocabulary of input
// variables: ABR programs read throughput/buffer histories, congestion-
// control programs read rate/RTT/loss histories. A BindingCatalog makes one
// domain's vocabulary concrete — the variable list the candidate generator
// samples from, a canned observation for trial runs (the compilation
// check), and a fuzz-observation generator for the normalization check.
//
// The pre-checks validate every program against the catalog of the domain
// it was generated for: a program that references a name outside the
// vocabulary fails its trial run on canned() exactly like the paper's
// Python exception check, so cross-domain programs cannot slip through on
// the strength of an unrelated domain's bindings.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dsl/value.h"
#include "util/rng.h"

namespace nada::dsl {

/// One observation variable exposed to state programs.
struct InputVariable {
  std::string name;
  bool is_vector = false;
};

class BindingCatalog {
 public:
  virtual ~BindingCatalog() = default;

  /// Domain token ("abr", "cc") naming this vocabulary.
  [[nodiscard]] virtual const std::string& domain() const = 0;

  /// All variables exposed to programs, with vector/scalar kinds. The
  /// candidate generator samples from this set; docs enumerate it.
  [[nodiscard]] virtual const std::vector<InputVariable>& variables()
      const = 0;

  /// A synthetic observation with plausible mid-episode values; the canned
  /// input for trial runs (the compilation check).
  [[nodiscard]] virtual Bindings canned() const = 0;

  /// A randomized observation for the normalization fuzz check. Values are
  /// drawn from wide but physically meaningful ranges.
  [[nodiscard]] virtual Bindings fuzz(util::Rng& rng) const = 0;

  /// Position of `name` in variables() order — the domain's canonical slot
  /// numbering. The bytecode compiler annotates each input reference with
  /// this slot, and canned()/fuzz() observations bind exactly this set, so
  /// slot order is a stable contract per domain. nullopt when `name` is
  /// outside the vocabulary.
  [[nodiscard]] std::optional<std::size_t> slot_index(
      std::string_view name) const {
    const auto& vars = variables();
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (vars[i].name == name) return i;
    }
    return std::nullopt;
  }
};

}  // namespace nada::dsl
