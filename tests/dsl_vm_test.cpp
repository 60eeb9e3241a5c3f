// Differential tests for the bytecode VM (dsl/bytecode.h, dsl/vm.h).
//
// The equivalence bar is the repo's standard: the VM, the library's only
// DSL engine, must be bit-identical to the reference tree-walk oracle
// (tests/dsl_tree_oracle.h) — same StateMatrix bits on success, same
// RuntimeError message on failure — over both generators' candidate
// streams (flawed candidates included), because failure reasons are
// journaled. The serialize -> parse -> canonicalize -> compile ->
// re-execute round trip follows sceneri's Interpreter test shape
// (SNIPPETS.md §2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/cc_state.h"
#include "dsl/bytecode.h"
#include "dsl/canonical.h"
#include "dsl/parser.h"
#include "dsl/state_program.h"
#include "dsl/vm.h"
#include "env/abr_domain.h"
#include "filter/checks.h"
#include "gen/profile.h"
#include "gen/state_gen.h"
#include "rl/agent.h"
#include "util/rng.h"

#include "dsl_tree_oracle.h"

namespace nada::dsl {
namespace {

bool same_bits(double x, double y) {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::memcpy(&a, &x, sizeof(a));
  std::memcpy(&b, &y, sizeof(b));
  return a == b;
}

struct RunOutcome {
  bool ok = false;
  StateMatrix matrix;
  std::string error;
};

template <typename Run>
RunOutcome outcome_of(Run run) {
  RunOutcome out;
  try {
    out.matrix = run();
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

RunOutcome run_vm(const StateProgram& program, const Bindings& obs) {
  return outcome_of([&] { return program.run(obs); });
}

RunOutcome run_oracle(const StateProgram& program, const Bindings& obs) {
  return outcome_of([&] { return test::run_program(program.program(), obs); });
}

void expect_matrices_identical(const StateMatrix& tree, const StateMatrix& vm,
                               const std::string& context) {
  ASSERT_EQ(tree.rows.size(), vm.rows.size()) << context;
  for (std::size_t r = 0; r < tree.rows.size(); ++r) {
    EXPECT_EQ(tree.rows[r].name, vm.rows[r].name) << context;
    EXPECT_EQ(tree.rows[r].is_vector, vm.rows[r].is_vector) << context;
    ASSERT_EQ(tree.rows[r].values.size(), vm.rows[r].values.size())
        << context << " row " << r;
    for (std::size_t i = 0; i < tree.rows[r].values.size(); ++i) {
      EXPECT_TRUE(same_bits(tree.rows[r].values[i], vm.rows[r].values[i]))
          << context << " row " << r << " elem " << i << ": "
          << tree.rows[r].values[i] << " vs " << vm.rows[r].values[i];
    }
  }
}

// Oracle and VM must agree on outcome AND on the exact failure message
// (failure reasons are journaled).
void expect_equivalent(const StateProgram& program, const Bindings& obs,
                       const std::string& context) {
  const RunOutcome tree = run_oracle(program, obs);
  const RunOutcome vm = run_vm(program, obs);
  ASSERT_EQ(tree.ok, vm.ok) << context << "\ntree: " << tree.error
                            << "\nvm:   " << vm.error;
  if (tree.ok) {
    expect_matrices_identical(tree.matrix, vm.matrix, context);
  } else {
    EXPECT_EQ(tree.error, vm.error) << context;
  }
}

std::vector<Bindings> observations(const BindingCatalog& catalog,
                                   std::size_t fuzz_count,
                                   std::uint64_t seed) {
  std::vector<Bindings> obs;
  obs.push_back(catalog.canned());
  util::Rng rng(seed);
  for (std::size_t i = 0; i < fuzz_count; ++i) obs.push_back(catalog.fuzz(rng));
  return obs;
}

void differential_over_stream(const gen::StateSpace& space,
                              const BindingCatalog& catalog,
                              std::size_t count, std::uint64_t seed) {
  // gpt-3.5 rates maximize planted flaws (syntax, runtime, unnormalized).
  gen::StateGenerator generator(space, gen::gpt35_profile(),
                                gen::PromptStrategy{}, seed);
  const auto obs = observations(catalog, 3, seed ^ 0xf022ULL);
  std::size_t executed = 0;
  for (const auto& candidate : generator.generate_batch(count)) {
    StateProgram program = [&]() -> StateProgram {
      try {
        return StateProgram::compile(candidate.source);
      } catch (const CompileError&) {
        // Syntax flaws fail in the (shared) parser before either one runs.
        return StateProgram::compile("emit \"x\" = 0.0;");
      }
    }();
    ++executed;
    for (std::size_t i = 0; i < obs.size(); ++i) {
      expect_equivalent(program, obs[i],
                        candidate.id + " obs " + std::to_string(i));
    }
  }
  EXPECT_EQ(executed, count);
}

// ---- full-stream differentials (ABR + CC) ---------------------------------

TEST(DslVm, PensieveBitIdenticalToTreeWalk) {
  const StateProgram program =
      StateProgram::compile(pensieve_state_source());
  for (const auto& obs : observations(env::abr_catalog(), 8, 0xabcdULL)) {
    expect_equivalent(program, obs, "pensieve");
  }
}

TEST(DslVm, AbrGeneratorStreamDifferential) {
  differential_over_stream(gen::abr_state_space(), env::abr_catalog(), 400,
                           0x5eedULL);
}

TEST(DslVm, CcGeneratorStreamDifferential) {
  differential_over_stream(gen::cc_state_space(), cc::cc_catalog(), 300,
                           0xccc5ULL);
}

// The CC planted-flaw tables, exercised directly: every runtime-bug and
// raw-unit variant must fail/succeed identically in the VM and the oracle.
TEST(DslVm, CcPlantedFlawTablesDifferential) {
  const auto& space = gen::cc_state_space();
  const auto obs = observations(cc::cc_catalog(), 4, 0xbadf1a3ULL);
  std::vector<gen::StateVariant> flawed = space.runtime_bugs;
  flawed.insert(flawed.end(), space.unnormalized.begin(),
                space.unnormalized.end());
  ASSERT_FALSE(flawed.empty());
  for (const auto& variant : flawed) {
    const std::string source = "emit \"row\" = " + variant.expr + ";\n";
    const StateProgram program =
        StateProgram::compile(source);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      expect_equivalent(program, obs[i],
                        variant.tag + " obs " + std::to_string(i));
    }
  }
}

// ---- error-path parity pins ------------------------------------------------

TEST(DslVm, DeadTernaryBranchNeverFails) {
  // The tree-walk never evaluates the untaken branch, so an undefined
  // variable / unknown function / bad arity there must stay silent in the
  // VM too — the compiler lowers them to runtime throws, not rejections.
  const auto& catalog = env::abr_catalog();
  for (const char* source :
       {"emit \"x\" = 1.0 ? 2.0 : undefined_var;\n",
        "emit \"x\" = 1.0 ? 2.0 : no_such_fn(3.0);\n",
        "emit \"x\" = 1.0 ? 2.0 : mean(1.0, 2.0, 3.0);\n"}) {
    const StateProgram program = StateProgram::compile(source);
    expect_equivalent(program, catalog.canned(), source);
    const RunOutcome vm = run_vm(program, catalog.canned());
    EXPECT_TRUE(vm.ok) << source << ": " << vm.error;
  }
}

TEST(DslVm, TakenErrorBranchMessagesMatch) {
  const auto& catalog = env::abr_catalog();
  for (const char* source :
       {"emit \"x\" = 0.0 ? 2.0 : undefined_var;\n",
        "emit \"x\" = no_such_fn(3.0);\n",
        "emit \"x\" = mean(1.0, 2.0, 3.0);\n",
        "emit \"x\" = ema(throughput_mbps);\n",
        "emit \"x\" = 1.0 / 0.0;\n",
        "emit \"x\" = throughput_mbps % 0.0;\n",
        "emit \"x\" = throughput_mbps + next_chunk_sizes_bytes;\n",
        "emit \"x\" = 2.0[0];\n",
        "emit \"x\" = throughput_mbps[99];\n",
        "emit \"x\" = throughput_mbps[-99];\n",
        "emit \"x\" = throughput_mbps[0.5];\n",
        "emit \"x\" = throughput_mbps ? 1.0 : 2.0;\n",
        "emit \"x\" = [throughput_mbps, undefined_var];\n",
        "emit \"x\" = vec(0, 1.0);\n",
        "emit \"x\" = vec(65, 1.0);\n",
        "emit \"x\" = slice(throughput_mbps, 3, 2);\n",
        "emit \"x\" = throughput_mbps[1e300];\n",
        "emit \"x\" = throughput_mbps[-1e400];\n",
        "emit \"x\" = smooth(throughput_mbps, 1e30);\n",
        "emit \"x\" = slice(throughput_mbps, 1e30, 1e30);\n"}) {
    const StateProgram program = StateProgram::compile(source);
    const RunOutcome tree = run_oracle(program, catalog.canned());
    ASSERT_FALSE(tree.ok) << source;
    expect_equivalent(program, catalog.canned(), source);
  }
}

TEST(DslVm, AndOrEvaluateBothButShortCircuitTheScalarCheck) {
  const auto& catalog = env::abr_catalog();
  // lhs == 0 (&&) / lhs != 0 (||) skip the rhs *scalar check* while still
  // evaluating the rhs expression — exactly the tree-walk's semantics.
  for (const char* source :
       {"emit \"x\" = 0.0 && throughput_mbps;\n",
        "emit \"x\" = 1.0 || throughput_mbps;\n",
        "emit \"x\" = 1.0 && throughput_mbps;\n",
        "emit \"x\" = 0.0 || throughput_mbps;\n",
        "emit \"x\" = 0.0 && undefined_var;\n"}) {
    const StateProgram program = StateProgram::compile(source);
    expect_equivalent(program, catalog.canned(), source);
  }
  // "0 && undefined_var" still throws in the VM and the oracle alike: the
  // operand itself is always evaluated, only its scalar check
  // short-circuits.
  const StateProgram program =
      StateProgram::compile("emit \"x\" = 0.0 && undefined_var;\n");
  EXPECT_FALSE(run_vm(program, catalog.canned()).ok);
}

// ---- serialize -> parse -> canonicalize -> compile -> re-execute ----------

// canonical_source sigils free variables with '@' (anti-capture for the
// store's fingerprints), so the canonical form is not NadaScript. Dropping
// the sigil yields a parseable serialization: '@' appears nowhere else
// outside quoted row names, and renamed bindings (v0, v1, ...) cannot
// collide because neither domain vocabulary contains vN names.
std::string reparseable_canonical(const std::string& canon) {
  std::string out;
  out.reserve(canon.size());
  bool in_string = false;
  for (char c : canon) {
    if (c == '"') in_string = !in_string;
    if (c == '@' && !in_string) continue;
    out += c;
  }
  return out;
}

void round_trip_over_stream(const gen::StateSpace& space,
                            const BindingCatalog& catalog, std::size_t count,
                            std::uint64_t seed) {
  gen::StateGenerator generator(space, gen::gpt4_profile(),
                                gen::PromptStrategy{}, seed);
  const auto obs = observations(catalog, 2, seed ^ 0x0117ULL);
  std::size_t round_tripped = 0;
  for (const auto& candidate : generator.generate_batch(count)) {
    Program ast;
    try {
      ast = parse(candidate.source);
    } catch (const CompileError&) {
      continue;  // syntax flaw: dies in the shared parser, nothing to diff
    }
    const std::string canon = canonical_source(ast);
    const StateProgram reparsed =
        StateProgram::compile(reparseable_canonical(canon));
    // Canonicalization is idempotent across the round trip: serializing
    // the reparsed program fingerprints back to the same canonical text.
    EXPECT_EQ(canonical_source(reparsed.program()), canon) << candidate.id;
    // The canonical program is oracle/VM equivalent on every observation...
    const StateProgram original =
        StateProgram::compile(candidate.source);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      expect_equivalent(reparsed, obs[i], candidate.id + " canonical");
      // ...and equivalent to the original source (error TEXT may cite
      // different line numbers since canonicalization strips comments, so
      // failures only need to agree as outcomes).
      const RunOutcome orig = run_oracle(original, obs[i]);
      const RunOutcome canon_vm = run_vm(reparsed, obs[i]);
      ASSERT_EQ(orig.ok, canon_vm.ok)
          << candidate.id << "\noriginal: " << orig.error
          << "\ncanonical vm: " << canon_vm.error;
      if (orig.ok) {
        expect_matrices_identical(orig.matrix, canon_vm.matrix, candidate.id);
      }
    }
    ++round_tripped;
  }
  EXPECT_GT(round_tripped, count / 2);
}

TEST(DslVm, RoundTripAbrStream) {
  round_trip_over_stream(gen::abr_state_space(), env::abr_catalog(), 200,
                         0x2024ULL);
}

TEST(DslVm, RoundTripCcStream) {
  round_trip_over_stream(gen::cc_state_space(), cc::cc_catalog(), 150,
                         0x2025ULL);
}

// ---- slot binding ----------------------------------------------------------

// `frame`'s values copied by name into a new frame over `vocabulary`.
Bindings rebind(const Bindings& frame, const Vocabulary& vocabulary) {
  Bindings out(vocabulary);
  for (std::size_t slot = 0; slot < vocabulary.size(); ++slot) {
    const Value* value = frame.find(vocabulary[slot].name);
    if (value != nullptr) out[slot] = *value;
  }
  return out;
}

// A program compiles without a vocabulary: the Vm binds its input names to
// the slots of each frame's vocabulary. One compiled program over frames
// of two vocabularies that order the variables differently computes
// identical matrices, on one Vm alternating between them.
TEST(DslVm, OneProgramBindsBySlotOfEachFramesVocabulary) {
  const auto& catalog = env::abr_catalog();
  std::vector<InputVariable> reversed_order(catalog.variables().begin(),
                                            catalog.variables().end());
  std::reverse(reversed_order.begin(), reversed_order.end());
  const Vocabulary reversed(reversed_order);
  ASSERT_NE(reversed.id(), catalog.variables().id());

  const StateProgram program = StateProgram::compile(pensieve_state_source());
  Vm vm;
  for (const Bindings& frame : observations(catalog, 3, 0x5107ULL)) {
    const Bindings mirrored = rebind(frame, reversed);
    const StateMatrix in_order = vm.run(program.code(), frame);
    const StateMatrix other_order = vm.run(program.code(), mirrored);
    expect_matrices_identical(in_order, other_order, "reversed vocabulary");
    expect_matrices_identical(in_order, vm.run(program.code(), frame),
                              "back to the catalog vocabulary");
    expect_equivalent(program, mirrored, "oracle, reversed vocabulary");
  }

  // A vocabulary freed and another built in its place binds afresh, even
  // at the freed one's address.
  std::vector<InputVariable> rotated_order(catalog.variables().begin(),
                                           catalog.variables().end());
  const StateMatrix expected = vm.run(program.code(), catalog.canned());
  for (std::size_t i = 0; i < rotated_order.size(); ++i) {
    std::rotate(rotated_order.begin(), rotated_order.begin() + 1,
                rotated_order.end());
    const auto rotated = std::make_unique<Vocabulary>(rotated_order);
    expect_matrices_identical(
        expected, vm.run(program.code(), rebind(catalog.canned(), *rotated)),
        "rotation " + std::to_string(i));
  }
}

// A name outside a frame's vocabulary still compiles, stays silent in a
// dead branch, and fails with the compiler's message only when evaluated;
// the same program runs on a vocabulary that has the name.
TEST(DslVm, OutOfVocabularyNameFailsOnlyWhenEvaluated) {
  const auto& catalog = env::abr_catalog();
  std::vector<InputVariable> without_buffer;
  for (const auto& var : catalog.variables()) {
    if (var.name != "buffer_size_s") without_buffer.push_back(var);
  }
  const Vocabulary smaller(without_buffer);
  const Bindings full = catalog.canned();
  const Bindings partial = rebind(full, smaller);

  const StateProgram dead =
      StateProgram::compile("emit \"x\" = 1.0 ? 2.0 : nope;\n");
  ASSERT_EQ(dead.code().inputs, std::vector<std::string>{"nope"});
  for (const Bindings* frame : {&full, &partial}) {
    EXPECT_TRUE(run_vm(dead, *frame).ok);
    expect_equivalent(dead, *frame, "dead branch");
  }

  const StateProgram live = StateProgram::compile(
      "emit \"t\" = mean(throughput_mbps);\n"
      "emit \"b\" = buffer_size_s / 10.0;\n");
  Vm vm;
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(vm.run(live.code(), full).rows.size(), 2u);
    try {
      (void)vm.run(live.code(), partial);
      ADD_FAILURE() << "buffer_size_s is outside the smaller vocabulary";
    } catch (const RuntimeError& e) {
      EXPECT_STREQ(e.what(), "undefined variable 'buffer_size_s' (line 2)");
    }
  }
  expect_equivalent(live, partial, "live reference");
}

TEST(DslVm, ConstantsArePooled) {
  // 10.0 appears twice and 2.0 once: two pooled constants, each bound to
  // one register.
  const StateProgram program = StateProgram::compile(
      "emit \"a\" = buffer_size_s / 10.0;\n"
      "emit \"b\" = download_time_s / 10.0;\n"
      "emit \"c\" = 2.0;\n");
  EXPECT_EQ(program.code().constants.size(), 2u);
  EXPECT_EQ(program.code().emit_names.size(), 3u);
}

TEST(DslVm, EmitRowCountIsStaticMetadata) {
  const StateProgram program =
      StateProgram::compile(pensieve_state_source());
  EXPECT_EQ(program.code().emit_names.size(), 6u);
  EXPECT_EQ(program.code().emit_names.front(), "last_quality");
}

// ---- signature cache (agent construction without a trial run) -------------

TEST(DslVm, CompilationCheckPrimesSignatureCache) {
  const auto& catalog = env::abr_catalog();
  std::optional<StateProgram> program;
  const auto check =
      filter::compilation_check(pensieve_state_source(), catalog, &program);
  ASSERT_TRUE(check.passed) << check.reason;
  const nn::StateSignature sig = rl::derive_signature(*program, catalog);
  const auto expected = program->run(catalog.canned()).row_lengths();
  EXPECT_EQ(sig.row_lengths, expected);
}

TEST(DslVm, PrimedSignatureIsServedWithoutExecution) {
  // Prime with sentinel lengths: derive_signature must return them
  // verbatim, proving the lookup path performs no program run.
  const auto& catalog = env::abr_catalog();
  const StateProgram program = StateProgram::compile(pensieve_state_source());
  program.prime_signature(catalog, {9, 9, 9});
  EXPECT_EQ(rl::derive_signature(program, catalog).row_lengths,
            (std::vector<std::size_t>{9, 9, 9}));
  // A different catalog misses the cache and recomputes honestly: the CC
  // vocabulary lacks pensieve's inputs, so an actual trial run must throw.
  EXPECT_THROW((void)program.signature_row_lengths(cc::cc_catalog()),
               RuntimeError);
}

// ---- execution budget ------------------------------------------------------

// Doubles a 64-wide vector per statement: cumulative cost passes any
// reasonable budget long before the final statement, so the budget also
// caps peak memory.
std::string doubling_source(std::size_t doublings) {
  std::string source = "let x0 = vec(64, 1.0);\n";
  for (std::size_t i = 1; i <= doublings; ++i) {
    source += "let x" + std::to_string(i) + " = concat(x" +
              std::to_string(i - 1) + ", x" + std::to_string(i - 1) + ");\n";
  }
  source += "emit \"r\" = sum(x" + std::to_string(doublings) + ");\n";
  return source;
}

TEST(DslVm, BudgetStopsPathologicalPrograms) {
  const auto check = filter::compilation_check(doubling_source(24),
                                               env::abr_catalog());
  ASSERT_FALSE(check.passed);
  EXPECT_NE(check.reason.find("instruction budget exceeded"),
            std::string::npos)
      << check.reason;
  EXPECT_NE(check.reason.find("run passed " +
                              std::to_string(kDefaultInstructionBudget) +
                              " cost units"),
            std::string::npos)
      << check.reason;
  EXPECT_EQ(check.exceeded_budget, kDefaultInstructionBudget);
}

TEST(DslVm, BudgetErrorIsARuntimeError) {
  // Every existing catch treats budget exhaustion as a candidate failure.
  const StateProgram program = StateProgram::compile(doubling_source(24));
  EXPECT_THROW((void)program.run(env::abr_catalog().canned()), RuntimeError);
}

TEST(DslVm, PerVmBudgetOverride) {
  const StateProgram program = StateProgram::compile(
      "let x = vec(64, 1.0);\nemit \"r\" = sum(concat(x, x));\n");
  Vm vm;
  vm.set_budget(10);
  EXPECT_THROW((void)vm.run(program.code(), env::abr_catalog().canned()),
               BudgetError);
  vm.set_budget(0);  // back to kDefaultInstructionBudget
  const StateMatrix& matrix =
      vm.run(program.code(), env::abr_catalog().canned());
  EXPECT_EQ(matrix.rows.size(), 1u);
  EXPECT_GT(vm.stats().runs, 0u);
  EXPECT_GT(vm.stats().instructions, 0u);
  EXPECT_GT(vm.stats().cost_units, vm.stats().instructions);
}

TEST(DslVm, WellBehavedProgramsCostFarBelowBudget) {
  Vm vm;
  const StateProgram program =
      StateProgram::compile(pensieve_state_source());
  (void)vm.run(program.code(), env::abr_catalog().canned());
  EXPECT_LT(vm.stats().cost_units, kDefaultInstructionBudget / 1000);
}

// ---- agent through the VM ------------------------------------------------

TEST(DslVm, AgentCountsVmExecution) {
  const auto& catalog = env::abr_catalog();
  std::optional<StateProgram> program;
  ASSERT_TRUE(filter::compilation_check(pensieve_state_source(), catalog,
                                        &program)
                  .passed);
  util::Rng init(0x11ULL);
  rl::PolicyAgent agent(*program, nn::ArchSpec::pensieve(), 6, catalog, init);
  util::Rng rng(0x22ULL);
  util::Rng fuzz(0x33ULL);
  for (int i = 0; i < 16; ++i) {
    (void)agent.decide(catalog.fuzz(fuzz), true, rng);
  }
  EXPECT_EQ(agent.exec_stats().runs, 16u);
  EXPECT_GT(agent.exec_stats().instructions, 0u);
}

}  // namespace
}  // namespace nada::dsl
