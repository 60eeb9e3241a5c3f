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
// in either domain or fidelity (reset() may).
//
// This binary replaces the global non-aligned operator new/delete with
// counting versions (as nada_bench does) to hold both.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cc/cc_domain.h"
#include "env/abr_domain.h"
#include "gen/profile.h"
#include "gen/state_gen.h"
#include "nn/arch.h"
#include "search/candidate.h"
#include "trace/generator.h"
#include "util/rng.h"
#include "video/video.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
