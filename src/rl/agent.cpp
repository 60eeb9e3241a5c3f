#include "rl/agent.h"

namespace nada::rl {

nn::StateSignature derive_signature(const dsl::StateProgram& program,
                                    const dsl::BindingCatalog& catalog) {
  // Served from the compiled program's signature cache: compilation_check
  // primes it from the trial run, so the funnel derives every agent's
  // input signature without re-executing the program. A cold cache (e.g.
  // a program built outside the pre-checks) computes it once.
  nn::StateSignature sig;
  sig.row_lengths = program.signature_row_lengths(catalog);
  return sig;
}

PolicyAgent::PolicyAgent(const dsl::StateProgram& program,
                         const nn::ArchSpec& spec, std::size_t num_actions,
                         const dsl::BindingCatalog& catalog, util::Rng& rng)
    : program_(&program), sig_(derive_signature(program, catalog)) {
  net_ = std::make_unique<nn::ActorCriticNet>(spec, sig_, num_actions, rng);
}

const dsl::StateMatrix& PolicyAgent::eval_state(const dsl::Bindings& obs) {
  return vm_.run(program_->code(), obs);
}

const std::vector<nn::Vec>& PolicyAgent::network_rows(
    const dsl::StateMatrix& matrix) {
  row_cache_.resize(matrix.rows.size());
  for (std::size_t i = 0; i < matrix.rows.size(); ++i) {
    row_cache_[i].assign(matrix.rows[i].values.begin(),
                         matrix.rows[i].values.end());
  }
  return row_cache_;
}

PolicyAgent::Decision PolicyAgent::decide(const dsl::Bindings& obs,
                                          bool sample, util::Rng& rng) {
  const dsl::StateMatrix& matrix = eval_state(obs);
  if (!matrix.all_finite()) {
    throw dsl::RuntimeError("state program produced non-finite values");
  }
  // Inference-only forward: bit-identical to net().forward, leaves the
  // training caches alone, and rides the fast path on a synced net (the
  // training engine's checkpoint evaluations).
  const auto out = net_->forward_inference(network_rows(matrix));
  Decision d;
  d.probs = out.probs;
  d.value = out.value;
  if (sample) {
    d.action = rng.weighted_index(out.probs);
  } else {
    d.action = 0;
    for (std::size_t i = 1; i < out.probs.size(); ++i) {
      if (out.probs[i] > out.probs[d.action]) d.action = i;
    }
  }
  return d;
}

}  // namespace nada::rl
