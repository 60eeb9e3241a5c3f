// Allocation pins for per-candidate and per-step hot paths.
//
// Every rerun, resume and supervised worker replays its candidate stream
// against the store, and each replayed state candidate costs one
// fingerprint (search::fingerprint_of). The front end parses it into a
// per-thread program that keeps its capacity and hashes the canonical form
// through a sink, so a steady-state fingerprint allocates almost nothing.
//
// Every training step steps one env::Episode, which writes its observation
// into the frame it owns, in place; a steady-state step allocates nothing
// in either domain or fidelity (reset() may). Around it, the training
// engine's step (capture forward, sampling, rollout bookkeeping) and the
// greedy evaluation step (PolicyAgent::decide) allocate nothing beyond
// what the state program's VM run does, once the first episode of each
// kind has sized the caches.
//
// This binary replaces every global operator new/delete, the aligned forms
// that nn::Mat storage goes through included, with counting versions (as
// nada_bench does) to hold all of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cc/cc_domain.h"
#include "cc/cc_state.h"
#include "dsl/state_program.h"
#include "dsl/vm.h"
#include "env/abr_domain.h"
#include "gen/profile.h"
#include "gen/state_gen.h"
#include "nn/arch.h"
#include "nn/mat.h"
#include "rl/batch_probe.h"
#include "search/candidate.h"
#include "trace/generator.h"
#include "util/rng.h"
#include "video/video.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void count_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  count_alloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count_alloc();
  void* p = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (::posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return operator new(size, align, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace nada {
namespace {

/// Allocations per step over the steps after the first of one eval episode.
double allocs_per_steady_step(const env::TaskDomain& domain,
                              env::Fidelity fidelity) {
  util::Rng rng(5);
  const auto episode = domain.start_eval_episode(0, fidelity, rng);
  (void)episode->reset();
  (void)episode->step(0);
  std::size_t steps = 0;
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  while (!episode->done()) {
    (void)episode->step(steps % domain.num_actions());
    ++steps;
  }
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_GT(steps, 10u);
  return static_cast<double>(g_allocs.load(std::memory_order_relaxed)) /
         static_cast<double>(steps);
}

TEST(EpisodeAlloc, AbrStepAllocatesNothingUnderBothFidelities) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.1, 1234);
  const video::Video video =
      video::make_test_video(video::youtube_ladder(), 42);
  const env::AbrDomain domain(dataset, video);
  EXPECT_EQ(allocs_per_steady_step(domain, env::Fidelity::kSimulation), 0.0);
  EXPECT_EQ(allocs_per_steady_step(domain, env::Fidelity::kEmulation), 0.0);
}

TEST(EpisodeAlloc, CcStepAllocatesNothing) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.1, 1234);
  const cc::CcDomain domain(dataset, cc::CcConfig{});
  EXPECT_EQ(allocs_per_steady_step(domain, env::Fidelity::kSimulation), 0.0);
}

TEST(MatAlloc, OneMatIsOneAlignedAllocation) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const nn::Mat m(4, 4);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(m.size(), 16u);
}

/// Steps and allocations counted over one kind of episode.
struct Tally {
  std::size_t steps = 0;
  std::uint64_t allocs = 0;
};

/// Counts allocations from the end of reset() until step() reports the
/// episode done, into `tally`; counts nothing when `tally` is null. In a
/// training episode that window holds every rollout step (state program,
/// capture forward, sampling, bookkeeping, env step) and the capture's
/// set-up, and not the update; in an evaluation episode, every decide()
/// and env step.
class CountingEpisode : public env::Episode {
 public:
  CountingEpisode(std::unique_ptr<env::Episode> inner, Tally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  const dsl::Bindings& reset() override {
    const dsl::Bindings& frame = inner_->reset();
    if (tally_ != nullptr) {
      g_allocs.store(0, std::memory_order_relaxed);
      g_counting.store(true, std::memory_order_relaxed);
    }
    return frame;
  }
  env::DomainStep step(std::size_t action) override {
    const env::DomainStep result = inner_->step(action);
    if (tally_ != nullptr) {
      ++tally_->steps;
      if (result.done) {
        g_counting.store(false, std::memory_order_relaxed);
        tally_->allocs += g_allocs.load(std::memory_order_relaxed);
      }
    }
    return result;
  }
  bool done() const override { return inner_->done(); }

 private:
  std::unique_ptr<env::Episode> inner_;
  Tally* tally_;
};

/// `inner` with its episodes wrapped in CountingEpisode, every one after
/// the first of each kind counted: the first training episode sizes the
/// capture caches and the rollout, and the first evaluation episode is
/// left out likewise.
class CountingDomain : public env::TaskDomain {
 public:
  explicit CountingDomain(const env::TaskDomain& inner) : inner_(&inner) {}

  const std::string& name() const override { return inner_->name(); }
  const dsl::BindingCatalog& catalog() const override {
    return inner_->catalog();
  }
  std::size_t num_actions() const override { return inner_->num_actions(); }
  std::size_t episode_length() const override {
    return inner_->episode_length();
  }
  double reward_scale_hint() const override {
    return inner_->reward_scale_hint();
  }
  const std::string& baseline_state_source() const override {
    return inner_->baseline_state_source();
  }
  std::unique_ptr<env::Episode> start_train_episode(
      env::Fidelity fidelity, util::Rng& rng) const override {
    return std::make_unique<CountingEpisode>(
        inner_->start_train_episode(fidelity, rng),
        train_started_++ > 0 ? &train : nullptr);
  }
  std::size_t num_eval_units() const override {
    return inner_->num_eval_units();
  }
  std::unique_ptr<env::Episode> start_eval_episode(
      std::size_t unit, env::Fidelity fidelity,
      util::Rng& rng) const override {
    return std::make_unique<CountingEpisode>(
        inner_->start_eval_episode(unit, fidelity, rng),
        eval_started_++ > 0 ? &eval : nullptr);
  }
  std::string scope_env() const override { return inner_->scope_env(); }
  void append_scope_spec(std::ostream& out) const override {
    inner_->append_scope_spec(out);
  }

  mutable Tally train;
  mutable Tally eval;

 private:
  const env::TaskDomain* inner_;
  mutable std::size_t train_started_ = 0;
  mutable std::size_t eval_started_ = 0;
};

/// Allocations of one steady-state run of `program` through a dsl::Vm on
/// the frame of `domain`'s first evaluation episode.
std::uint64_t state_allocs_per_run(const env::TaskDomain& domain,
                                   const dsl::StateProgram& program) {
  util::Rng rng(5);
  const auto episode =
      domain.start_eval_episode(0, env::Fidelity::kSimulation, rng);
  const dsl::Bindings& frame = episode->reset();
  dsl::Vm vm;
  (void)vm.run(program.code(), frame);
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  (void)vm.run(program.code(), frame);
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

/// Trains `arch` over `state_source` through the engine, inline, with two
/// checkpoint evaluations, and returns the state program's allocations per
/// run after requiring that every counted training and evaluation step
/// allocates exactly those and nothing else: the capture or inference
/// step, sampling, the rollout's bookkeeping and the env step add none.
std::uint64_t expect_steady_steps_add_no_allocation(
    const env::TaskDomain& domain, const std::string& state_source,
    const nn::ArchSpec& arch) {
  const dsl::StateProgram program = dsl::StateProgram::compile(state_source);
  const std::uint64_t per_run = state_allocs_per_run(domain, program);
  rl::TrainConfig train;
  train.epochs = 4;
  train.test_interval = 2;
  train.max_eval_traces = 2;
  const CountingDomain counting(domain);
  const rl::BatchProbeTrainer trainer(counting, rl::BatchProbeConfig{train});
  const rl::ProbeJob job{&program, &arch, 11};
  const std::vector<rl::TrainResult> results =
      trainer.train(std::span<const rl::ProbeJob>(&job, 1));
  EXPECT_FALSE(results[0].failed) << results[0].error;
  EXPECT_EQ(counting.train.steps, 3 * domain.episode_length());
  EXPECT_EQ(counting.train.allocs, counting.train.steps * per_run);
  EXPECT_GT(counting.eval.steps, 10u);
  EXPECT_EQ(counting.eval.allocs, counting.eval.steps * per_run);
  return per_run;
}

// Pensieve's state runs allocation-free, so its steps allocate nothing.
TEST(TrainingStepAlloc, AbrPensieveStepsAllocateNothing) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.1, 1234);
  const video::Video video =
      video::make_test_video(video::youtube_ladder(), 42);
  const env::AbrDomain domain(dataset, video);
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = arch.scalar_hidden = arch.merge_hidden = 32;
  EXPECT_EQ(expect_steady_steps_add_no_allocation(
                domain, dsl::pensieve_state_source(), arch),
            0u);
}

// The default CC state calls builtins on vectors, and the VM's builtin
// calls return fresh vectors (and reductions copy their argument); the
// network, sampling, bookkeeping and env step add nothing to those.
TEST(TrainingStepAlloc, CcLstmStepsAddNoAllocation) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.1, 1234);
  const cc::CcDomain domain(dataset, cc::CcConfig{});
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.temporal = nn::TemporalUnit::kLstm;
  arch.rnn_hidden = arch.scalar_hidden = arch.merge_hidden = 16;
  (void)expect_steady_steps_add_no_allocation(
      domain, cc::default_cc_state_source(), arch);
}

}  // namespace
}  // namespace nada

namespace nada::search {
namespace {

TEST(FingerprintAlloc, StateFingerprintAllocatesAtMostFive) {
  constexpr std::size_t kWarm = 1000;
  constexpr std::size_t kCounted = 20000;
  gen::StateGenerator generator(gen::abr_state_space(), gen::gpt4_profile(),
                                gen::PromptStrategy{}, 77);
  StateCandidateSource source(generator);
  const std::vector<CandidateSpec> specs = source.generate(kWarm + kCounted);
  ASSERT_EQ(specs.size(), kWarm + kCounted);

  // Built once, as SearchJob builds it.
  const nn::ArchSpec arch = nn::ArchSpec::pensieve();
  const FixedFingerprints fixed =
      FixedFingerprints::of(FixedDesign{nullptr, &arch});

  std::uint64_t sink = 0;
  bool parsed = false;
  for (std::size_t i = 0; i < kWarm; ++i) {
    sink ^= fingerprint_of(specs[i], fixed, &parsed).lo;
  }

  std::size_t parsed_count = 0;
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (std::size_t i = kWarm; i < kWarm + kCounted; ++i) {
    sink ^= fingerprint_of(specs[i], fixed, &parsed).lo;
    if (parsed) ++parsed_count;
  }
  g_counting.store(false, std::memory_order_relaxed);

  const double per_fingerprint =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed)) /
      static_cast<double>(kCounted);
  EXPECT_LE(per_fingerprint, 5.0) << "sink " << sink;
  // Both exits are exercised: the stream plants syntax flaws.
  EXPECT_GT(parsed_count, kCounted / 2);
  EXPECT_LT(parsed_count, kCounted);
}

}  // namespace
}  // namespace nada::search
