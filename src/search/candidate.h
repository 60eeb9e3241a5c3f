// CandidateSpec: the unified candidate variant of the search API.
//
// The funnel searches over two kinds of designs — state programs trained
// on a fixed architecture, and architectures driving a fixed state
// program. Historically each kind had its own ~200-line code path;
// CandidateSpec collapses them into one stream the single SearchJob funnel
// consumes, with the kind deciding only the genuinely kind-specific
// leaves:
//
//   * the content fingerprint (state: combine(state_fp, fixed_arch_fp);
//     arch: combine(arch_fp, fixed_state_fp) — the historical store keys,
//     preserved exactly so journals from every earlier build keep serving),
//   * the pre-check (state: compile + normalization trial runs; arch: spec
//     instantiation + forward smoke test, no normalization per §2.2),
//   * the fingerprint-salted probe / full-train seeds.
//
// A CandidateSource adapts a generator into the stream; jobs may mix kinds
// freely (each candidate pairs with the FixedDesign half it lacks).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dsl/state_program.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "nn/arch.h"
#include "store/fingerprint.h"

namespace nada::search {

enum class CandidateKind {
  kStateProgram,   ///< candidate carries NadaScript source
  kArchitecture,   ///< candidate carries an nn::ArchSpec
};

struct CandidateSpec {
  CandidateKind kind = CandidateKind::kStateProgram;
  std::string id;
  /// kStateProgram: the program text. kArchitecture: a human-readable
  /// description (lands in CandidateOutcome::source, as before).
  std::string source;
  std::optional<nn::ArchSpec> arch;  ///< kArchitecture only

  [[nodiscard]] static CandidateSpec state_program(std::string id,
                                                   std::string source);
  [[nodiscard]] static CandidateSpec architecture(std::string id,
                                                  nn::ArchSpec arch,
                                                  std::string description);
};

/// The half of the (state, arch) design a candidate does not supply.
/// `arch` is required while state-program candidates are in the stream;
/// `state` while architecture candidates are. Pointees must outlive the
/// job and stay unchanged while it runs: the job hashes them once, at
/// construction.
struct FixedDesign {
  const dsl::StateProgram* state = nullptr;
  const nn::ArchSpec* arch = nullptr;
};

/// The FixedDesign's own component fingerprints: the half every candidate
/// of the other kind is combined with. The fixed state program hashes from
/// the AST it already holds, so its source is never re-parsed. A half the
/// design lacks stays empty.
struct FixedFingerprints {
  std::optional<store::Fingerprint> state;
  std::optional<store::Fingerprint> arch;

  [[nodiscard]] static FixedFingerprints of(const FixedDesign& fixed);
};

/// Content address of `spec` completed by `fixed` — byte-for-byte the
/// historical store keys, so existing journals keep serving. Hashes only
/// the fixed half `spec` pairs with, on every call; code fingerprinting a
/// whole stream (SearchJob) hashes the fixed half once and calls the
/// overload below. Throws std::invalid_argument when `fixed` lacks the
/// half `spec` needs.
[[nodiscard]] store::Fingerprint fingerprint_of(const CandidateSpec& spec,
                                                const FixedDesign& fixed);

/// fingerprint_of with the fixed half already hashed. `parsed`, when
/// non-null, receives whether a state candidate's source parsed, which is
/// exactly whether it compiles (lowering never rejects a parseable program);
/// it is left untouched for architectures.
[[nodiscard]] store::Fingerprint fingerprint_of(const CandidateSpec& spec,
                                                const FixedFingerprints& fixed,
                                                bool* parsed = nullptr);

/// Fingerprint-derived training seeds (kind-salted, identical to the
/// historical per-path constants): identical content always trains
/// identically, which is what makes cached results transplantable across
/// runs and shards.
[[nodiscard]] std::uint64_t probe_seed(const CandidateSpec& spec,
                                       std::uint64_t job_seed,
                                       const store::Fingerprint& fp);
[[nodiscard]] std::uint64_t full_train_seed(const CandidateSpec& spec,
                                            std::uint64_t job_seed,
                                            const store::Fingerprint& fp);

/// A replayable stream of candidates. generate() advances the stream;
/// reset() rewinds it to the start for an exact replay (resume support).
///
/// Threads: a SearchJob with a pool calls generate() from its puller
/// thread, one window ahead of the window it screens (search_job.h, the
/// pull contract), and never concurrently with another generate() or with
/// reset(). A source must therefore not depend on the calling thread.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;
  [[nodiscard]] virtual std::vector<CandidateSpec> generate(
      std::size_t n) = 0;
  virtual void reset() = 0;
};

/// gen::StateGenerator as a candidate stream. The generator must outlive
/// the source.
class StateCandidateSource final : public CandidateSource {
 public:
  explicit StateCandidateSource(gen::StateGenerator& generator)
      : generator_(&generator) {}
  [[nodiscard]] std::vector<CandidateSpec> generate(std::size_t n) override;
  void reset() override { generator_->reset(); }

 private:
  gen::StateGenerator* generator_;
};

/// gen::ArchGenerator as a candidate stream.
class ArchCandidateSource final : public CandidateSource {
 public:
  explicit ArchCandidateSource(gen::ArchGenerator& generator)
      : generator_(&generator) {}
  [[nodiscard]] std::vector<CandidateSpec> generate(std::size_t n) override;
  void reset() override { generator_->reset(); }

 private:
  gen::ArchGenerator* generator_;
};

/// A fixed list of candidates (tests, replayed streams, mixed-kind jobs).
class VectorCandidateSource final : public CandidateSource {
 public:
  explicit VectorCandidateSource(std::vector<CandidateSpec> specs)
      : specs_(std::move(specs)) {}
  [[nodiscard]] std::vector<CandidateSpec> generate(std::size_t n) override;
  void reset() override { next_ = 0; }

 private:
  std::vector<CandidateSpec> specs_;
  std::size_t next_ = 0;
};

}  // namespace nada::search
