// Input vocabularies, observation frames and per-domain binding catalogs.
//
// A state program is only meaningful relative to a vocabulary of input
// variables: ABR programs read throughput/buffer histories, congestion-
// control programs read rate/RTT/loss histories. A Vocabulary lists one
// domain's variables in slot order, and a Bindings frame holds one
// observation as one Value per slot. Programs compile without a
// vocabulary; dsl::Vm resolves a program's input names against a frame's
// vocabulary only when the program or the vocabulary changes, and binds
// every input by slot.
//
// A BindingCatalog makes one domain's vocabulary concrete — the variable
// list the candidate generator samples from, a canned observation for
// trial runs (the compilation check), and a fuzz-observation generator for
// the normalization check.
//
// The pre-checks validate every program against the catalog of the domain
// it was generated for: a program that references a name outside the
// vocabulary fails its trial run on canned() exactly like the paper's
// Python exception check, so cross-domain programs cannot slip through on
// the strength of an unrelated domain's bindings.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// One domain's input variables in slot order: slot i of every frame over
/// this vocabulary holds variable i. Immutable, and stamped with a
/// process-unique id, so a cache keyed by id() cannot mistake a vocabulary
/// later built at a freed one's address for it (as CompiledProgram::id
/// does for programs).
class Vocabulary {
 public:
  explicit Vocabulary(std::vector<InputVariable> variables);

  [[nodiscard]] std::size_t size() const { return variables_.size(); }
  [[nodiscard]] const InputVariable& operator[](std::size_t slot) const {
    return variables_[slot];
  }
  [[nodiscard]] auto begin() const { return variables_.begin(); }
  [[nodiscard]] auto end() const { return variables_.end(); }
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Slot of `name`; nullopt when `name` is outside the vocabulary.
  [[nodiscard]] std::optional<std::size_t> slot(std::string_view name) const;

 private:
  std::vector<InputVariable> variables_;
  std::uint64_t id_;
};

/// One observation as a program's input frame: one Value per variable of
/// the vocabulary it points to, in slot order. The vocabulary must outlive
/// the frame. An env::Episode owns one frame and refills it in place each
/// step, so vector slots keep their capacity.
class Bindings {
 public:
  /// A frame over `vocabulary` with every slot scalar 0.
  explicit Bindings(const Vocabulary& vocabulary)
      : vocabulary_(&vocabulary), values_(vocabulary.size()) {}

  [[nodiscard]] const Vocabulary& vocabulary() const { return *vocabulary_; }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  Value& operator[](std::size_t slot) { return values_[slot]; }
  const Value& operator[](std::size_t slot) const { return values_[slot]; }

  /// The value of variable `name`; nullptr when `name` is outside the
  /// vocabulary. A scan over the names, for tests and the tree-walk
  /// oracle: the VM binds by slot.
  [[nodiscard]] const Value* find(std::string_view name) const {
    const auto slot = vocabulary_->slot(name);
    return slot ? &values_[*slot] : nullptr;
  }

 private:
  const Vocabulary* vocabulary_;
  std::vector<Value> values_;
};

class BindingCatalog {
 public:
  virtual ~BindingCatalog() = default;

  /// Domain token ("abr", "cc") naming this vocabulary.
  [[nodiscard]] virtual const std::string& domain() const = 0;

  /// All variables exposed to programs, in slot order. The candidate
  /// generator samples from this set; docs enumerate it.
  [[nodiscard]] virtual const Vocabulary& variables() const = 0;

  /// A synthetic observation with plausible mid-episode values, as a frame
  /// over variables(); the canned input for trial runs (the compilation
  /// check).
  [[nodiscard]] virtual Bindings canned() const = 0;

  /// A randomized observation for the normalization fuzz check, as a frame
  /// over variables(). Values are drawn from wide but physically
  /// meaningful ranges.
  [[nodiscard]] virtual Bindings fuzz(util::Rng& rng) const = 0;
};

}  // namespace nada::dsl
