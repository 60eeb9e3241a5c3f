#include "search/candidate.h"

#include <algorithm>
#include <stdexcept>

namespace nada::search {

CandidateSpec CandidateSpec::state_program(std::string id,
                                           std::string source) {
  CandidateSpec spec;
  spec.kind = CandidateKind::kStateProgram;
  spec.id = std::move(id);
  spec.source = std::move(source);
  return spec;
}

CandidateSpec CandidateSpec::architecture(std::string id, nn::ArchSpec arch,
                                          std::string description) {
  CandidateSpec spec;
  spec.kind = CandidateKind::kArchitecture;
  spec.id = std::move(id);
  spec.source = std::move(description);
  spec.arch = std::move(arch);
  return spec;
}

FixedFingerprints FixedFingerprints::of(const FixedDesign& fixed) {
  FixedFingerprints fps;
  if (fixed.state != nullptr) {
    fps.state = store::fingerprint_state_program(fixed.state->program());
  }
  if (fixed.arch != nullptr) fps.arch = store::fingerprint_arch(*fixed.arch);
  return fps;
}

store::Fingerprint fingerprint_of(const CandidateSpec& spec,
                                  const FixedDesign& fixed) {
  const bool is_state = spec.kind == CandidateKind::kStateProgram;
  const FixedDesign half{is_state ? nullptr : fixed.state,
                         is_state ? fixed.arch : nullptr};
  return fingerprint_of(spec, FixedFingerprints::of(half));
}

store::Fingerprint fingerprint_of(const CandidateSpec& spec,
                                  const FixedFingerprints& fixed,
                                  bool* parsed) {
  switch (spec.kind) {
    case CandidateKind::kStateProgram:
      if (!fixed.arch.has_value()) {
        throw std::invalid_argument(
            "fingerprint_of: state-program candidate '" + spec.id +
            "' needs FixedDesign::arch");
      }
      return store::combine(
          store::fingerprint_state_source(spec.source, parsed), *fixed.arch);
    case CandidateKind::kArchitecture:
      if (!fixed.state.has_value()) {
        throw std::invalid_argument(
            "fingerprint_of: architecture candidate '" + spec.id +
            "' needs FixedDesign::state");
      }
      return store::combine(store::fingerprint_arch(*spec.arch), *fixed.state);
  }
  throw std::logic_error("fingerprint_of: unknown candidate kind");
}

std::uint64_t probe_seed(const CandidateSpec& spec, std::uint64_t job_seed,
                         const store::Fingerprint& fp) {
  // The kind-specific salts are the historical per-path constants; keeping
  // them distinct means a state program and an architecture whose combined
  // fingerprints ever collided would still train on different streams.
  return spec.kind == CandidateKind::kStateProgram
             ? job_seed ^ (0xb10b << 8) ^ fp.lo
             : job_seed ^ (0xa10b << 8) ^ fp.lo;
}

std::uint64_t full_train_seed(const CandidateSpec& spec,
                              std::uint64_t job_seed,
                              const store::Fingerprint& fp) {
  return spec.kind == CandidateKind::kStateProgram
             ? job_seed ^ (0xf111 << 4) ^ fp.lo
             : job_seed ^ (0xf222 << 4) ^ fp.lo;
}

std::vector<CandidateSpec> StateCandidateSource::generate(std::size_t n) {
  std::vector<CandidateSpec> specs;
  specs.reserve(n);
  for (auto& candidate : generator_->generate_batch(n)) {
    specs.push_back(CandidateSpec::state_program(std::move(candidate.id),
                                                 std::move(candidate.source)));
  }
  return specs;
}

std::vector<CandidateSpec> ArchCandidateSource::generate(std::size_t n) {
  std::vector<CandidateSpec> specs;
  specs.reserve(n);
  for (auto& candidate : generator_->generate_batch(n)) {
    specs.push_back(CandidateSpec::architecture(
        std::move(candidate.id), std::move(candidate.spec),
        std::move(candidate.description)));
  }
  return specs;
}

std::vector<CandidateSpec> VectorCandidateSource::generate(std::size_t n) {
  std::vector<CandidateSpec> out;
  const std::size_t end = std::min(specs_.size(), next_ + n);
  out.reserve(end - next_);
  for (; next_ < end; ++next_) out.push_back(specs_[next_]);
  return out;
}

}  // namespace nada::search
