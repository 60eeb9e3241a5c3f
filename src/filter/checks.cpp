#include "filter/checks.h"

#include <cmath>

#include "dsl/vm.h"
#include "util/rng.h"

namespace nada::filter {

CheckResult compilation_check(const std::string& source,
                              const dsl::BindingCatalog& catalog,
                              std::optional<dsl::StateProgram>* out) {
  try {
    dsl::StateProgram program =
        dsl::StateProgram::compile(source, &catalog);

    // Trial run (the paper's execution check).
    const dsl::StateMatrix matrix = program.run(catalog.canned());
    if (!matrix.all_finite()) {
      return CheckResult::fail("trial run produced non-finite values");
    }

    // A state function must produce a stable shape: the network is built
    // once for a fixed signature, so a program whose row lengths change
    // between observations cannot be trained. Compare against a second,
    // different observation.
    util::Rng rng(0x70b1a5ULL);
    const dsl::StateMatrix second = program.run(catalog.fuzz(rng));
    if (matrix.row_lengths() != second.row_lengths()) {
      return CheckResult::fail("state shape varies across observations");
    }

    // The trial run just computed the network input signature; cache it on
    // the program so agent construction (rl::derive_signature) never has
    // to execute the program again.
    program.prime_signature(catalog, matrix.row_lengths());

    if (out != nullptr) *out = std::move(program);
    return CheckResult::ok();
  } catch (const dsl::BudgetError& e) {
    CheckResult result = CheckResult::fail(e.what());
    result.exceeded_budget = dsl::instruction_budget();
    return result;
  } catch (const std::exception& e) {
    return CheckResult::fail(e.what());
  }
}

CheckResult normalization_check(const dsl::StateProgram& program,
                                const dsl::BindingCatalog& catalog,
                                double threshold, std::size_t runs,
                                std::uint64_t seed) {
  if (threshold <= 0.0) {
    return CheckResult::fail("invalid threshold");
  }
  util::Rng rng(seed);
  try {
    for (std::size_t i = 0; i < runs; ++i) {
      const dsl::StateMatrix matrix = program.run(catalog.fuzz(rng));
      if (!matrix.all_finite()) {
        return CheckResult::fail("non-finite feature under fuzzing");
      }
      for (const auto& row : matrix.rows) {
        for (double v : row.values) {
          if (std::abs(v) > threshold) {
            return CheckResult::fail(
                "feature '" + row.name + "' reached " + std::to_string(v) +
                " (threshold " + std::to_string(threshold) + ")");
          }
        }
      }
    }
  } catch (const dsl::BudgetError& e) {
    CheckResult result =
        CheckResult::fail(std::string("fuzz run raised: ") + e.what());
    result.exceeded_budget = dsl::instruction_budget();
    return result;
  } catch (const std::exception& e) {
    // A runtime error on fuzz inputs means the program is fragile; the
    // paper's pipeline would hit the same exception during training, so
    // reject it here.
    return CheckResult::fail(std::string("fuzz run raised: ") + e.what());
  }
  return CheckResult::ok();
}

CheckResult arch_compilation_check(const nn::ArchSpec& spec,
                                   const nn::StateSignature& signature,
                                   std::size_t num_actions) {
  try {
    util::Rng rng(0xa2c4e6ULL);
    nn::ActorCriticNet net(spec, signature, num_actions, rng);
    // Smoke-test a forward pass with zeros of the right shape.
    std::vector<nn::Vec> rows;
    rows.reserve(signature.rows());
    for (std::size_t len : signature.row_lengths) {
      rows.emplace_back(std::max<std::size_t>(len, 1), 0.0);
    }
    const auto output = net.forward_inference(rows);
    for (double p : output.probs) {
      if (!std::isfinite(p)) {
        return CheckResult::fail("forward pass produced non-finite output");
      }
    }
    return CheckResult::ok();
  } catch (const std::exception& e) {
    return CheckResult::fail(e.what());
  }
}

}  // namespace nada::filter
