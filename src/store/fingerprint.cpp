#include "store/fingerprint.h"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "dsl/canonical.h"
#include "dsl/parser.h"
#include "dsl/value.h"
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

Fingerprint fingerprint_text(std::string_view text) {
  Fingerprint fp;
  fp.hi = util::mix64(util::fnv1a64(text, 0x51a7e5ULL));
  fp.lo = util::mix64(util::fnv1a64(text, 0xa9c4edULL));
  return fp;
}

Fingerprint combine(const Fingerprint& a, const Fingerprint& b) {
  Fingerprint fp;
  fp.hi = util::mix64(a.hi ^ util::mix64(b.hi));
  fp.lo = util::mix64(a.lo ^ util::mix64(b.lo));
  return fp;
}

Fingerprint fingerprint_state_source(const std::string& source,
                                     bool* parsed) {
  dsl::Program program;
  try {
    program = dsl::parse(source);
  } catch (const dsl::CompileError&) {
    if (parsed != nullptr) *parsed = false;
    // Unparsable candidates still deserve stable identities: byte-identical
    // broken outputs (modulo surrounding whitespace) hash together, in a
    // domain separated from canonical hashes.
    return fingerprint_text(std::string("raw-state:") +
                            std::string(util::trim(source)));
  }
  if (parsed != nullptr) *parsed = true;
  return fingerprint_state_program(program);
}

Fingerprint fingerprint_state_program(const dsl::Program& program) {
  return fingerprint_text("state:" + dsl::canonical_source(program));
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
  out << "train{epochs=" << c.epochs << ";test_interval=" << c.test_interval
      << ";gamma=";
  out << util::shortest_double(c.gamma);
  out << ";lr=";
  out << util::shortest_double(c.learning_rate);
  out << ";entropy_start=";
  out << util::shortest_double(c.entropy_start);
  out << ";entropy_end=";
  out << util::shortest_double(c.entropy_end);
  out << ";critic_weight=";
  out << util::shortest_double(c.critic_weight);
  out << ";grad_clip=";
  out << util::shortest_double(c.grad_clip);
  out << ";reward_scale=";
  out << util::shortest_double(c.reward_scale);
  out << ";normalize_advantages=" << (c.normalize_advantages ? 1 : 0)
      << ";advantage_clip=";
  out << util::shortest_double(c.advantage_clip);
  out << ";huber_delta=";
  out << util::shortest_double(c.huber_delta);
  out << ";fidelity=" << static_cast<int>(c.fidelity)
      << ";evaluate_checkpoints=" << (c.evaluate_checkpoints ? 1 : 0)
      << ";max_eval_traces=" << c.max_eval_traces
      << ";emulation_final_eval=" << (c.emulation_final_eval ? 1 : 0) << "}";
  return out.str();
}

}  // namespace nada::store
