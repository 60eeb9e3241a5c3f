// The congestion-control domain through the shared funnel: deterministic
// episodes, training-engine-vs-serial-oracle equivalence on CC candidates
// (probes and multi-seed full training), and a
// tiny end-to-end CC search with store caching/resume — the same
// guarantees the ABR domain pins in batch_probe_test and store_test, now
// exercised through env::TaskDomain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cc/cc_domain.h"
#include "cc/cc_env.h"
#include "cc/cc_state.h"
#include "env/abr_domain.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "rl/batch_probe.h"
#include "rl/session.h"
#include "rl/trainer.h"
#include "rl_trainer_oracle.h"
#include "search/candidate.h"
#include "search/search_job.h"
#include "store/candidate_store.h"
#include "trace/generator.h"
#include "util/thread_pool.h"
#include "video/video.h"

namespace nada {
namespace {

cc::CcConfig tiny_cc_config() {
  cc::CcConfig config;
  config.steps_per_episode = 30;
  config.init_rate_mbps = 2.0;
  return config;
}

trace::Dataset cc_dataset() {
  return trace::build_dataset(trace::Environment::k4G, 0.2, 1234);
}

nn::ArchSpec tiny_arch() {
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = 8;
  arch.rnn_hidden = 8;
  arch.scalar_hidden = 8;
  arch.merge_hidden = 16;
  return arch;
}

rl::TrainConfig tiny_train_config() {
  rl::TrainConfig config;
  config.epochs = 6;
  config.test_interval = 3;
  config.max_eval_traces = 2;
  return config;
}

std::vector<dsl::StateProgram> cc_probe_programs() {
  std::vector<dsl::StateProgram> programs;
  programs.push_back(
      dsl::StateProgram::compile(cc::default_cc_state_source()));
  programs.push_back(dsl::StateProgram::compile(
      "emit \"ack\" = ack_rate_mbps / 100.0;\n"
      "emit \"queue\" = (rtt_ms - min_rtt_ms) / 200.0;\n"
      "emit \"loss\" = loss_fraction;\n"));
  programs.push_back(dsl::StateProgram::compile(
      "emit \"rate\" = log1p(current_rate_mbps) / 6.0;\n"
      "emit \"trend\" = trend(ack_rate_mbps) / 100.0;\n"
      "emit \"rtt\" = log1p(rtt_ms) / 8.0;\n"));
  return programs;
}

// ---- deterministic episodes -------------------------------------------------

TEST(CcDeterminism, SameSeedSameEpisodeBitwise) {
  const auto dataset = cc_dataset();
  const cc::CcConfig config = tiny_cc_config();
  util::Rng rng_a(42), rng_b(42);
  cc::CcEnv env_a(dataset.train[0], config, rng_a);
  cc::CcEnv env_b(dataset.train[0], config, rng_b);
  const dsl::Bindings& obs_a = env_a.reset();
  const dsl::Bindings& obs_b = env_b.reset();
  EXPECT_EQ(obs_a[cc::kCurrentRateMbps].as_scalar(),
            obs_b[cc::kCurrentRateMbps].as_scalar());
  std::size_t step = 0;
  while (!env_a.done()) {
    const auto ra = env_a.step(step % cc::rate_actions().size());
    const auto rb = env_b.step(step % cc::rate_actions().size());
    // Bitwise: the whole simulator (queue, loss, jitter draws) must be a
    // pure function of (trace, config, seed).
    EXPECT_EQ(ra.reward, rb.reward) << "step " << step;
    for (const cc::CcSlot slot :
         {cc::kAckRateMbps, cc::kRttMs, cc::kLossFraction}) {
      EXPECT_EQ(obs_a[slot].as_vector(), obs_b[slot].as_vector())
          << "step " << step;
    }
    ++step;
  }
  EXPECT_EQ(step, config.steps_per_episode);
  EXPECT_TRUE(env_b.done());
}

TEST(CcDeterminism, ConstructionDrawsNothingAndStepBeforeResetThrows) {
  const auto dataset = cc_dataset();
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  // Constructing an env must not advance the caller's stream.
  cc::CcEnv env(dataset.train[0], tiny_cc_config(), rng_a);
  EXPECT_EQ(rng_a.uniform(), rng_b.uniform());
  EXPECT_THROW((void)env.step(0), std::logic_error);
  EXPECT_FALSE(env.done());
}

TEST(CcDeterminism, DomainEpisodesReplayBitwise) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  util::Rng rng_a(99), rng_b(99);
  auto ep_a = domain.start_train_episode(env::Fidelity::kSimulation, rng_a);
  auto ep_b = domain.start_train_episode(env::Fidelity::kSimulation, rng_b);
  dsl::Bindings obs_a = ep_a->reset();
  dsl::Bindings obs_b = ep_b->reset();
  while (!ep_a->done()) {
    const auto sa = ep_a->step(2);
    const auto sb = ep_b->step(2);
    EXPECT_EQ(sa.reward, sb.reward);
    EXPECT_EQ(sa.done, sb.done);
  }
  EXPECT_TRUE(ep_b->done());
}

// ---- serial oracle vs training engine equivalence ---------------------------

void expect_bitwise_equal(const rl::TrainResult& a, const rl::TrainResult& b,
                          const std::string& label) {
  ASSERT_EQ(a.failed, b.failed) << label << ": " << a.error << " vs "
                                << b.error;
  ASSERT_EQ(a.train_rewards.size(), b.train_rewards.size()) << label;
  for (std::size_t t = 0; t < a.train_rewards.size(); ++t) {
    EXPECT_EQ(a.train_rewards[t], b.train_rewards[t])
        << label << " epoch " << t;
  }
  ASSERT_EQ(a.test_scores.size(), b.test_scores.size()) << label;
  for (std::size_t c = 0; c < a.test_scores.size(); ++c) {
    EXPECT_EQ(a.test_scores[c], b.test_scores[c]) << label << " ckpt " << c;
  }
  EXPECT_EQ(a.final_score, b.final_score) << label;
}

TEST(CcBatchProbe, BitIdenticalToSerialTrainer) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  const auto programs = cc_probe_programs();
  const nn::ArchSpec arch = tiny_arch();
  rl::TrainConfig config = tiny_train_config();
  config.evaluate_checkpoints = false;  // the funnel's probe shape

  std::vector<rl::ProbeJob> jobs;
  for (std::size_t i = 0; i < 5; ++i) {
    jobs.push_back(rl::ProbeJob{&programs[i % programs.size()], &arch,
                                0xcc00 + 31 * i});
  }

  std::vector<rl::TrainResult> serial;
  for (const auto& job : jobs) {
    test::Trainer trainer(domain, config, job.seed);
    serial.push_back(trainer.train(*job.program, *job.spec));
  }
  const rl::BatchProbeTrainer engine(domain, rl::BatchProbeConfig{config});
  const auto fused = engine.train(jobs);
  ASSERT_EQ(fused.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_bitwise_equal(serial[i], fused[i], "cc job " + std::to_string(i));
  }
}

TEST(CcBatchProbe, BitIdenticalWithCheckpointEvaluation) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  const auto programs = cc_probe_programs();
  const nn::ArchSpec arch = tiny_arch();
  const rl::TrainConfig config = tiny_train_config();

  std::vector<rl::ProbeJob> jobs;
  for (std::size_t i = 0; i < 4; ++i) {
    jobs.push_back(rl::ProbeJob{&programs[i % programs.size()], &arch,
                                0xcc10 + 17 * i});
  }
  std::vector<rl::TrainResult> serial;
  for (const auto& job : jobs) {
    test::Trainer trainer(domain, config, job.seed);
    serial.push_back(trainer.train(*job.program, *job.spec));
  }
  const rl::BatchProbeTrainer engine(domain, rl::BatchProbeConfig{config});
  const auto fused = engine.train(jobs);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_bitwise_equal(serial[i], fused[i],
                         "cc ckpt job " + std::to_string(i));
  }
}

TEST(CcBatchProbe, SessionsMatchOraclePerSeedOnTable4Path) {
  // Table 4's path on CC: checkpoint evaluation plus the final emulation
  // evaluation, three seeds per design, through the merged run_sessions on
  // a pool — against one oracle per (design, seed) plus aggregate_sessions.
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  const auto programs = cc_probe_programs();
  const nn::ArchSpec arch = tiny_arch();
  rl::SessionConfig config;
  config.seeds = 3;
  config.train = tiny_train_config();
  config.train.evaluate_checkpoints = true;
  config.train.emulation_final_eval = true;
  const std::vector<rl::SessionJob> jobs{{&programs[0], &arch, 0xcc40},
                                         {&programs[1], &arch, 0xcc41}};

  util::ThreadPool pool{3};
  const auto merged = rl::run_sessions(domain, jobs, config, &pool);
  ASSERT_EQ(merged.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::string label = "cc design " + std::to_string(j);
    std::vector<rl::TrainResult> per_seed;
    for (std::size_t s = 0; s < config.seeds; ++s) {
      test::Trainer oracle(domain, config.train,
                           jobs[j].base_seed + 0x9e3779b9ULL * (s + 1));
      per_seed.push_back(oracle.train(*jobs[j].program, *jobs[j].spec));
    }
    const rl::SessionResult expected =
        rl::aggregate_sessions(per_seed, /*emulation_eval=*/true);
    const rl::SessionResult& got = merged[j];
    ASSERT_FALSE(expected.failed) << label;
    EXPECT_EQ(got.failed, expected.failed) << label;
    EXPECT_EQ(got.test_score, expected.test_score) << label;
    EXPECT_EQ(got.emulation_score, expected.emulation_score) << label;
    EXPECT_EQ(got.median_curve, expected.median_curve) << label;
    EXPECT_EQ(got.curve_epochs, expected.curve_epochs) << label;
    ASSERT_EQ(got.sessions.size(), config.seeds) << label;
    for (std::size_t s = 0; s < config.seeds; ++s) {
      const std::string seed_label = label + " seed " + std::to_string(s);
      ASSERT_EQ(per_seed[s].test_scores.size(), 2u) << seed_label;
      expect_bitwise_equal(per_seed[s], got.sessions[s], seed_label);
      EXPECT_EQ(per_seed[s].test_epochs, got.sessions[s].test_epochs)
          << seed_label;
      EXPECT_EQ(per_seed[s].emulation_score, got.sessions[s].emulation_score)
          << seed_label;
      EXPECT_EQ(per_seed[s].error, got.sessions[s].error) << seed_label;
    }
  }
}

// ---- longest-first dispatch -------------------------------------------------

/// One CC architecture cohort: every temporal unit, shared and separate
/// trunks, and one spec no network can be built from.
std::vector<nn::ArchSpec> mixed_cc_archs() {
  std::vector<nn::ArchSpec> archs;
  const auto add = [&archs](nn::TemporalUnit unit, std::size_t hidden,
                            bool shared) {
    nn::ArchSpec arch = tiny_arch();
    arch.temporal = unit;
    arch.rnn_hidden = hidden;
    arch.shared_trunk = shared;
    archs.push_back(arch);
  };
  add(nn::TemporalUnit::kConv1D, 8, false);
  add(nn::TemporalUnit::kRnn, 8, true);
  add(nn::TemporalUnit::kLstm, 16, false);
  add(nn::TemporalUnit::kDense, 8, false);
  add(nn::TemporalUnit::kConv1D, 8, true);
  add(nn::TemporalUnit::kLstm, 8, true);
  add(nn::TemporalUnit::kRnn, 16, false);
  nn::ArchSpec invalid = tiny_arch();
  invalid.conv_kernel = 64;  // longer than every CC history row
  archs.push_back(invalid);
  return archs;
}

TEST(CcBatchProbe, LongestFirstDispatchMatchesOracleAcrossArchitectures) {
  // A pool reorders a mixed cohort's jobs by cost; the results must still
  // be the serial oracle's, bit for bit and in job order.
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  const auto programs = cc_probe_programs();
  const auto archs = mixed_cc_archs();
  rl::TrainConfig config = tiny_train_config();
  config.epochs = 4;
  config.evaluate_checkpoints = false;  // the funnel's probe shape

  std::vector<rl::ProbeJob> jobs;
  for (std::size_t i = 0; i < archs.size(); ++i) {
    jobs.push_back(rl::ProbeJob{&programs[i % programs.size()], &archs[i],
                                0xcc60 + 13 * i});
  }
  // The pool does reorder this cohort.
  const auto order = rl::dispatch_order(jobs, domain);
  ASSERT_FALSE(std::is_sorted(order.begin(), order.end()));

  util::ThreadPool pool{3};
  const rl::BatchProbeTrainer engine(domain, rl::BatchProbeConfig{config});
  const auto pooled = engine.train(jobs, &pool);
  ASSERT_EQ(pooled.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    test::Trainer oracle(domain, config, jobs[i].seed);
    expect_bitwise_equal(oracle.train(*jobs[i].program, *jobs[i].spec),
                         pooled[i], "cc arch job " + std::to_string(i));
    EXPECT_EQ(pooled[i].failed, i + 1 == jobs.size()) << pooled[i].error;
  }
}

TEST(CcBatchProbe, DispatchOrderIsDescendingStepCost) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  const auto programs = cc_probe_programs();
  // Runs into a runtime error on every frame: no signature derives.
  const dsl::StateProgram broken =
      dsl::StateProgram::compile("emit \"x\" = log(0.0 - 1.0 - loss_fraction);\n");
  ASSERT_THROW((void)rl::derive_signature(broken, domain.catalog()),
               dsl::RuntimeError);
  const auto archs = mixed_cc_archs();

  std::vector<rl::ProbeJob> jobs;
  jobs.push_back(rl::ProbeJob{&broken, &archs[2], 1});
  for (std::size_t i = 0; i < archs.size(); ++i) {
    jobs.push_back(rl::ProbeJob{&programs[0], &archs[i], 2});
  }
  jobs.push_back(rl::ProbeJob{&programs[0], &archs[2], 3});  // ties job 3

  const auto cost = [&](std::size_t i) -> std::uint64_t {
    try {
      return nn::step_cost(*jobs[i].spec,
                           rl::derive_signature(*jobs[i].program,
                                                domain.catalog()),
                           domain.num_actions());
    } catch (const std::exception&) {
      return 0;
    }
  };
  const auto order = rl::dispatch_order(jobs, domain);
  ASSERT_EQ(order.size(), jobs.size());
  // The broken signature (job 0) and the invalid spec (job 8) cost
  // nothing, and go last in job order.
  EXPECT_EQ(order[order.size() - 2], 0u);
  EXPECT_EQ(order.back(), 8u);
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    const std::uint64_t a = cost(order[k]);
    const std::uint64_t b = cost(order[k + 1]);
    EXPECT_GE(a, b) << "position " << k;
    if (a == b) EXPECT_LT(order[k], order[k + 1]) << "position " << k;
  }
  // The LSTM(h=16) is the costliest; its twin, job 9, follows it.
  EXPECT_EQ(order[0], 3u);
  EXPECT_EQ(order[1], 9u);

  // One architecture over one signature: the order is the job order.
  const std::vector<rl::ProbeJob> uniform(4, rl::ProbeJob{&programs[0],
                                                           &archs[0], 5});
  EXPECT_EQ(rl::dispatch_order(uniform, domain),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(NnStepCost, CountsEveryLayerOfTheForwardPass) {
  const nn::StateSignature sig{{1, 8, 8, 1}};
  const std::size_t actions = 4;
  const auto cost = [&](const nn::ArchSpec& spec) {
    return nn::step_cost(spec, sig, actions);
  };
  // Pensieve-shaped conv network, counted by hand: two scalar rows
  // (1 x 8 each), two conv rows ((8 - 4 + 1) outputs x 8 filters x 4
  // taps each), the merge layer over the 2 * 8 + 2 * 40 = 96 concatenated
  // outputs, times two towers, plus the actor and critic heads.
  nn::ArchSpec conv = tiny_arch();
  const std::uint64_t tower = 2 * 8 + 2 * (5 * 8 * 4) + 96 * 16;
  EXPECT_EQ(cost(conv), 2 * tower + 16 * (actions + 1));

  // Every width raises the cost.
  const auto grows = [&](nn::ArchSpec spec, std::size_t nn::ArchSpec::*width) {
    const std::uint64_t before = cost(spec);
    spec.*width *= 2;
    EXPECT_GT(cost(spec), before);
  };
  grows(conv, &nn::ArchSpec::conv_filters);
  grows(conv, &nn::ArchSpec::scalar_hidden);
  grows(conv, &nn::ArchSpec::merge_hidden);
  nn::ArchSpec rnn = conv;
  rnn.temporal = nn::TemporalUnit::kRnn;
  grows(rnn, &nn::ArchSpec::rnn_hidden);
  nn::ArchSpec dense = conv;
  dense.temporal = nn::TemporalUnit::kDense;
  grows(dense, &nn::ArchSpec::scalar_hidden);
  nn::ArchSpec deeper = conv;
  deeper.merge_layers = 2;
  EXPECT_GT(cost(deeper), cost(conv));

  // An LSTM's four gates cost more than an RNN of the same hidden size.
  nn::ArchSpec lstm = rnn;
  lstm.temporal = nn::TemporalUnit::kLstm;
  EXPECT_GT(cost(lstm), cost(rnn));
  // A shared trunk runs one tower instead of two.
  for (nn::ArchSpec spec : {conv, rnn, lstm, dense}) {
    const std::uint64_t separate = cost(spec);
    spec.shared_trunk = true;
    EXPECT_LT(cost(spec), separate) << spec.describe();
  }
  // Where no network can be built, there is no cost.
  nn::ArchSpec invalid = conv;
  invalid.conv_kernel = 9;
  EXPECT_THROW((void)cost(invalid), nn::ArchError);
}

// ---- end-to-end CC search ---------------------------------------------------

search::SearchConfig tiny_cc_search_config() {
  search::SearchConfig config;
  config.num_candidates = 20;
  config.early_epochs = 4;
  config.full_train_top = 2;
  config.seeds = 2;
  config.train = tiny_train_config();
  config.train.epochs = 8;
  config.train.test_interval = 4;
  config.baseline_arch = tiny_arch();
  return config;
}

std::string fresh_store_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("nada_cc_funnel_" + name + ".nsb"))
          .string();
  std::filesystem::remove(path);
  return path;
}

/// A CC state search (generator seed `gen_seed`) against `store` (may be
/// null); `resume` goes through SearchJob::resume().
search::SearchResult search_cc_states(const cc::CcDomain& domain,
                                      std::uint64_t seed,
                                      std::uint64_t gen_seed,
                                      util::ThreadPool* pool,
                                      store::CandidateStore* store = nullptr,
                                      bool resume = false) {
  const search::SearchConfig config = tiny_cc_search_config();
  gen::StateGenerator generator(gen::cc_state_space(), gen::gpt4_profile(),
                                gen::PromptStrategy{}, gen_seed);
  search::StateCandidateSource source(generator);
  search::JobOptions options;
  options.pool = pool;
  options.store = store;
  search::SearchJob job(domain, config, seed, source,
                        search::FixedDesign{nullptr, &config.baseline_arch},
                        options);
  return resume ? job.resume() : job.run_to_completion();
}

store::StoreScope cc_store_scope(const cc::CcDomain& domain,
                                 std::uint64_t seed) {
  return search::store_scope(domain, tiny_cc_search_config(), seed);
}

TEST(CcSearch, FunnelRunsEndToEnd) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  util::ThreadPool pool{4};
  const auto result = search_cc_states(domain, 777, 55, &pool);

  EXPECT_EQ(result.n_total, 20u);
  EXPECT_GT(result.n_compiled, 0u);
  EXPECT_LE(result.n_normalized, result.n_compiled);
  EXPECT_GT(result.n_fully_trained, 0u);
  EXPECT_LE(result.n_fully_trained, 2u);
  EXPECT_TRUE(result.has_best());
  EXPECT_GT(result.best_score, -1e8);
  EXPECT_FALSE(result.original.failed);
  // CC candidate ids carry the domain token.
  for (const auto& outcome : result.outcomes) {
    EXPECT_NE(outcome.id.find("-cc-state-"), std::string::npos) << outcome.id;
  }
}

TEST(CcSearch, StoreScopeCarriesDomainToken) {
  const auto dataset = cc_dataset();
  const cc::CcDomain cc_domain(dataset, tiny_cc_config());
  const video::Video video = video::make_test_video(video::pensieve_ladder(),
                                                    7);
  const env::AbrDomain abr_domain(dataset, video);
  const auto cc_scope =
      search::store_scope(cc_domain, tiny_cc_search_config(), 1);
  const auto abr_scope =
      search::store_scope(abr_domain, tiny_cc_search_config(), 1);
  EXPECT_EQ(cc_scope.env, "cc-4G");
  EXPECT_EQ(abr_scope.env, "4G");
  EXPECT_NE(cc_scope.env, abr_scope.env);
  // Same trace environment, different domain: journals must never alias.
  EXPECT_FALSE(cc_scope == abr_scope);
}

TEST(CcSearch, SecondRunServesEverythingFromCache) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  util::ThreadPool pool{4};
  const std::string path = fresh_store_path("cache");

  store::CandidateStore store_a(path, cc_store_scope(domain, 4242));
  const auto run_a = search_cc_states(domain, 4242, 91, &pool, &store_a);
  EXPECT_GT(run_a.n_probes_run, 0u);
  EXPECT_GT(run_a.n_full_trains_run, 0u);

  store::CandidateStore store_b(path, cc_store_scope(domain, 4242));
  const auto run_b = search_cc_states(domain, 4242, 91, &pool, &store_b);

  // Everything is served from the journal: zero duplicate training.
  EXPECT_EQ(run_b.n_probes_run, 0u);
  EXPECT_EQ(run_b.n_full_trains_run, 0u);
  EXPECT_GT(run_b.cache_hits(), 0u);
  ASSERT_EQ(run_a.outcomes.size(), run_b.outcomes.size());
  for (std::size_t i = 0; i < run_a.outcomes.size(); ++i) {
    EXPECT_EQ(run_a.outcomes[i].early_rewards,
              run_b.outcomes[i].early_rewards);
    EXPECT_EQ(run_a.outcomes[i].test_score, run_b.outcomes[i].test_score);
    EXPECT_EQ(run_a.outcomes[i].fully_trained,
              run_b.outcomes[i].fully_trained);
  }
  EXPECT_EQ(run_a.best_index, run_b.best_index);
  EXPECT_EQ(run_a.best_score, run_b.best_score);
}

TEST(CcSearch, ResumeAfterTruncatedJournalMatchesFullRun) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  util::ThreadPool pool{4};
  const std::string full_path = fresh_store_path("resume_full");
  const std::string cut_path = fresh_store_path("resume_cut");

  // Reference run.
  store::CandidateStore full_store(full_path, cc_store_scope(domain, 31337));
  const auto want = search_cc_states(domain, 31337, 17, &pool, &full_store);

  // Simulate an interruption: keep only the first half of the journal.
  {
    std::ifstream in(full_path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::ofstream out(cut_path, std::ios::trunc);
    for (std::size_t i = 0; i < lines.size() / 2; ++i) {
      out << lines[i] << "\n";
    }
  }

  store::CandidateStore cut_store(cut_path, cc_store_scope(domain, 31337));
  const auto got = search_cc_states(domain, 31337, 17, &pool, &cut_store,
                                    /*resume=*/true);

  ASSERT_EQ(want.outcomes.size(), got.outcomes.size());
  for (std::size_t i = 0; i < want.outcomes.size(); ++i) {
    EXPECT_EQ(want.outcomes[i].early_rewards, got.outcomes[i].early_rewards)
        << want.outcomes[i].id;
    EXPECT_EQ(want.outcomes[i].test_score, got.outcomes[i].test_score);
  }
  EXPECT_EQ(want.best_index, got.best_index);
  EXPECT_EQ(want.best_score, got.best_score);
}

// A bad NADA_NN_KERNEL is a configuration error: it must fail the search
// rather than be recorded as every design's training failure, which a
// store-backed run would journal and every later run would serve from
// cache. The kernel table resolves once per process, so the search runs in
// a child that re-executes this binary and resolves it afresh.
TEST(CcSearchDeathTest, BadKernelFlavorFailsTheRunNotADesign) {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else  // googletest before 1.12
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  EXPECT_EXIT(
      {
        setenv("NADA_NN_KERNEL", "bogus", 1);
        const auto dataset = cc_dataset();
        const cc::CcDomain domain(dataset, tiny_cc_config());
        search::SearchConfig config = tiny_cc_search_config();
        config.num_candidates = 12;
        const dsl::StateProgram state =
            dsl::StateProgram::compile(domain.baseline_state_source());
        gen::ArchGenerator generator(gen::gpt4_profile(),
                                     gen::PromptStrategy{}, 3, 0.25);
        search::ArchCandidateSource source(generator);
        search::SearchJob job(domain, config, 1, source,
                              search::FixedDesign{&state, nullptr}, {});
        try {
          (void)job.run_to_completion();
        } catch (const std::exception& e) {
          std::cerr << e.what() << "\n";
          std::exit(0);
        }
        std::cerr << "the search completed\n";
        std::exit(1);
      },
      ::testing::ExitedWithCode(0),
      "NADA_NN_KERNEL must be one of scalar[|]avx2, got \"bogus\"");
}

// ---- CC generator sanity ----------------------------------------------------

TEST(CcGenerator, CandidatesUseCcVocabulary) {
  gen::StateGenerator generator(gen::cc_state_space(), gen::gpt4_profile(),
                                gen::PromptStrategy{}, 3);
  std::size_t compiled = 0;
  for (int i = 0; i < 60; ++i) {
    const auto cand = generator.generate();
    if (cand.flaw != gen::InjectedFlaw::kNone) continue;
    std::optional<dsl::StateProgram> program;
    const auto check =
        filter::compilation_check(cand.source, cc::cc_catalog(), &program);
    EXPECT_TRUE(check.passed) << cand.source << "\n" << check.reason;
    if (!check.passed) continue;
    ++compiled;
    // Clean CC candidates are well-normalized under CC fuzz ranges.
    EXPECT_TRUE(
        filter::normalization_check(*program, cc::cc_catalog()).passed)
        << cand.source;
    // ...and reference variables outside the ABR vocabulary, so the ABR
    // catalog rejects them at trial-run time.
    EXPECT_FALSE(
        filter::compilation_check(cand.source, env::abr_catalog()).passed)
        << cand.source;
  }
  EXPECT_GT(compiled, 10u);
}

TEST(CcGenerator, PlantedFlawsAreCaught) {
  gen::StateGenerator generator(gen::cc_state_space(), gen::gpt35_profile(),
                                gen::PromptStrategy{}, 4);
  std::size_t syntax_seen = 0, runtime_seen = 0, unnorm_seen = 0;
  for (int i = 0; i < 300 && (syntax_seen < 5 || runtime_seen < 5 ||
                              unnorm_seen < 5);
       ++i) {
    const auto cand = generator.generate();
    std::optional<dsl::StateProgram> program;
    const auto compile =
        filter::compilation_check(cand.source, cc::cc_catalog(), &program);
    switch (cand.flaw) {
      case gen::InjectedFlaw::kSyntax:
        ++syntax_seen;
        EXPECT_FALSE(compile.passed) << cand.source;
        break;
      case gen::InjectedFlaw::kRuntime:
        ++runtime_seen;
        EXPECT_FALSE(compile.passed) << cand.source;
        break;
      case gen::InjectedFlaw::kUnnormalized:
        ++unnorm_seen;
        if (compile.passed) {
          EXPECT_FALSE(
              filter::normalization_check(*program, cc::cc_catalog()).passed)
              << cand.source;
        }
        break;
      case gen::InjectedFlaw::kNone:
        break;
    }
  }
  EXPECT_GE(syntax_seen, 5u);
  EXPECT_GE(runtime_seen, 5u);
  EXPECT_GE(unnorm_seen, 5u);
}

}  // namespace
}  // namespace nada
