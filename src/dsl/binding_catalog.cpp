#include "dsl/binding_catalog.h"

#include <atomic>

namespace nada::dsl {
namespace {

std::uint64_t next_vocabulary_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Vocabulary::Vocabulary(std::vector<InputVariable> variables)
    : variables_(std::move(variables)), id_(next_vocabulary_id()) {}

std::optional<std::size_t> Vocabulary::slot(std::string_view name) const {
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    if (variables_[i].name == name) return i;
  }
  return std::nullopt;
}

}  // namespace nada::dsl
