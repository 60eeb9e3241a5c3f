#include "store/fingerprint.h"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "dsl/canonical.h"
#include "dsl/parser.h"
#include "util/strings.h"

namespace nada::store {

std::string Fingerprint::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::optional<Fingerprint> Fingerprint::from_hex(std::string_view text) {
  if (text.size() != 32) return std::nullopt;
  Fingerprint fp;
  const auto parse_half = [&](std::string_view half, std::uint64_t& out) {
    const auto [end, ec] =
        std::from_chars(half.data(), half.data() + half.size(), out, 16);
    return ec == std::errc() && end == half.data() + half.size();
  };
  if (!parse_half(text.substr(0, 16), fp.hi)) return std::nullopt;
  if (!parse_half(text.substr(16, 16), fp.lo)) return std::nullopt;
  return fp;
}

namespace {

// fingerprint_text's two hash streams, fed piece by piece.
util::Fnv1a64Pair text_hasher() { return {0x51a7e5ULL, 0xa9c4edULL}; }

Fingerprint finish(const util::Fnv1a64Pair& hasher) {
  return {util::mix64(hasher.first()), util::mix64(hasher.second())};
}

}  // namespace

Fingerprint fingerprint_text(std::string_view text) {
  util::Fnv1a64Pair hasher = text_hasher();
  hasher(text);
  return finish(hasher);
}

Fingerprint combine(const Fingerprint& a, const Fingerprint& b) {
  Fingerprint fp;
  fp.hi = util::mix64(a.hi ^ util::mix64(b.hi));
  fp.lo = util::mix64(a.lo ^ util::mix64(b.lo));
  return fp;
}

Fingerprint fingerprint_state_source(const std::string& source,
                                     bool* parsed) {
  // One program per thread, refilled in place: once its buffers have grown
  // to the thread's largest source, a fingerprint allocates nothing, and a
  // source that does not parse returns its error by value, unformatted.
  thread_local dsl::Program program;
  const bool ok = !dsl::parse_into(source, program).has_value();
  if (parsed != nullptr) *parsed = ok;
  if (ok) return fingerprint_state_program(program);
  // Unparsable candidates still deserve stable identities: byte-identical
  // broken outputs (modulo surrounding whitespace) hash together, in a
  // domain separated from canonical hashes. The prefix and the text go
  // through the hasher in turn, so nothing is concatenated.
  util::Fnv1a64Pair hasher = text_hasher();
  hasher("raw-state:");
  hasher(util::trim(source));
  return finish(hasher);
}

Fingerprint fingerprint_state_program(const dsl::Program& program) {
  // fingerprint_text("state:" + canonical_source(program)), in one pass and
  // without building either string.
  util::Fnv1a64Pair hasher = text_hasher();
  hasher("state:");
  dsl::hash_canonical(program, hasher);
  return finish(hasher);
}

std::string canonical_arch(const nn::ArchSpec& spec) {
  std::ostringstream out;
  out << "arch{temporal=" << nn::temporal_unit_name(spec.temporal)
      << ";conv_filters=" << spec.conv_filters
      << ";conv_kernel=" << spec.conv_kernel
      << ";rnn_hidden=" << spec.rnn_hidden
      << ";scalar_hidden=" << spec.scalar_hidden
      << ";merge_hidden=" << spec.merge_hidden
      << ";merge_layers=" << spec.merge_layers
      << ";activation=" << nn::activation_name(spec.activation)
      << ";shared_trunk=" << (spec.shared_trunk ? 1 : 0) << "}";
  return out.str();
}

Fingerprint fingerprint_arch(const nn::ArchSpec& spec) {
  return fingerprint_text(canonical_arch(spec));
}

std::string canonical_train_config(const rl::TrainConfig& c) {
  std::ostringstream out;
  // The discount, entropy schedule, critic weight, gradient clip, reward
  // scale, advantage conditioning and Huber delta are fixed by the trainer
  // (src/rl/trainer.h and trainer.cpp), not set here; the text keeps their
  // tokens so every digest over it stays stable.
  out << "train{epochs=" << c.epochs << ";test_interval=" << c.test_interval
      << ";gamma=0.99;lr=";
  out << util::shortest_double(c.learning_rate);
  out << ";entropy_start=1;entropy_end=0.05;critic_weight=0.5;grad_clip=5"
         ";reward_scale=0;normalize_advantages=0;advantage_clip=0"
         ";huber_delta=1;fidelity=" << static_cast<int>(c.fidelity)
      << ";evaluate_checkpoints=" << (c.evaluate_checkpoints ? 1 : 0)
      << ";max_eval_traces=" << c.max_eval_traces
      << ";emulation_final_eval=" << (c.emulation_final_eval ? 1 : 0) << "}";
  return out.str();
}

}  // namespace nada::store
