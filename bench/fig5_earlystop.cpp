// Figure 5: comparison of early-stopping classifiers.
//
// Builds a labeled design corpus by actually training generated state
// designs (recording each design's early reward window and final
// performance), then runs the paper's five-fold protocol (train on 20%,
// validate on 80%) for all five methods and reports false/true negative
// rates. Includes the label-smoothing ablation and an early-window (K)
// sweep, the design choices DESIGN.md calls out.
#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "env/abr_domain.h"
#include "filter/checks.h"
#include "filter/earlystop.h"
#include "gen/state_gen.h"
#include "rl/trainer.h"
#include "search/types.h"

namespace {

using namespace nada;

/// Trains one design and returns its (normalized) record.
filter::DesignRecord train_record(const env::TaskDomain& domain,
                                  const dsl::StateProgram& program,
                                  const std::string& id,
                                  const std::string& source,
                                  const nn::ArchSpec& arch,
                                  std::size_t total_epochs,
                                  double normalizer, std::uint64_t seed) {
  rl::TrainConfig config;
  config.epochs = total_epochs;
  config.evaluate_checkpoints = false;  // ranking uses training rewards
  rl::Trainer trainer(domain, config, seed);
  const rl::TrainResult result = trainer.train(program, arch);
  filter::DesignRecord record;
  record.id = id;
  record.source_text = source;
  if (result.failed) {
    record.final_score = -10.0;
    record.early_rewards.assign(std::max<std::size_t>(total_epochs / 4, 4),
                                -10.0);
    return record;
  }
  // Store the full training curve; callers truncate to the early window
  // they study (the paper's K = first quarter of the budget).
  const double denom = std::max(std::abs(normalizer), 0.1);
  record.early_rewards = result.train_rewards;
  for (double& r : record.early_rewards) r /= denom;
  record.final_score = result.final_score / denom;
  return record;
}

/// Copy of the corpus with curves truncated to `frac` of the budget.
std::vector<filter::DesignRecord> windowed(
    const std::vector<filter::DesignRecord>& corpus, double frac) {
  std::vector<filter::DesignRecord> out = corpus;
  for (auto& r : out) {
    const auto keep = static_cast<std::size_t>(std::max(
        4.0, frac * static_cast<double>(r.early_rewards.size())));
    if (r.early_rewards.size() > keep) r.early_rewards.resize(keep);
  }
  return out;
}

}  // namespace

int main() {
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("Figure 5 — Early-stopping classifier comparison", scale);
  bench::Stopwatch timer;
  util::ThreadPool pool;

  // Corpus: generated designs trained on the two cheapest environments.
  const std::size_t corpus_target =
      std::max<std::size_t>(scale.gen_count(2000), 150);
  const std::size_t total_epochs = scale.epoch_count(10000, 120);

  const nn::ArchSpec arch = search::scaled_arch(scale);

  const trace::Environment envs[] = {trace::Environment::kFcc,
                                     trace::Environment::kStarlink};
  std::vector<filter::DesignRecord> corpus;
  for (const auto env : envs) {
    const trace::Dataset dataset =
        trace::build_dataset(env, scale.traces, 42);
    const video::Video video =
        video::make_test_video(video::pensieve_ladder(), 7);
    const env::AbrDomain domain(dataset, video);

    // Environment normalizer: the original design's training plateau.
    const auto original =
        dsl::StateProgram::compile(dsl::pensieve_state_source());
    const auto base_record =
        train_record(domain, original, "original", "", arch, total_epochs,
                     1.0, 99);
    const double normalizer = std::max(std::abs(base_record.final_score), 0.1);

    // Generate candidates from both profiles, keep the pre-check survivors.
    gen::StateGenerator g35(gen::gpt35_profile(), gen::PromptStrategy{},
                            400 + static_cast<int>(env));
    gen::StateGenerator g4(gen::gpt4_profile(), gen::PromptStrategy{},
                           500 + static_cast<int>(env));
    std::vector<std::pair<std::string, std::string>> survivors;  // id, src
    auto harvest = [&survivors](gen::StateGenerator& g, std::size_t want) {
      std::size_t tries = 0;
      while (survivors.size() < want && tries < want * 8) {
        ++tries;
        const auto cand = g.generate();
        std::optional<dsl::StateProgram> program;
        if (!filter::compilation_check(cand.source, env::abr_catalog(), &program).passed) {
          continue;
        }
        if (!filter::normalization_check(*program, env::abr_catalog()).passed) continue;
        survivors.emplace_back(cand.id, cand.source);
      }
    };
    const std::size_t per_env = corpus_target / 2;
    harvest(g35, per_env / 2);
    harvest(g4, per_env);

    std::vector<filter::DesignRecord> records(survivors.size());
    pool.parallel_for(survivors.size(), [&](std::size_t i) {
      const auto program = dsl::StateProgram::compile(survivors[i].second);
      records[i] = train_record(domain, program, survivors[i].first,
                                survivors[i].second, arch, total_epochs,
                                normalizer, 1000 + i);
    });
    for (auto& r : records) corpus.push_back(std::move(r));
    std::cout << "[" << trace::environment_name(env) << "] corpus +"
              << survivors.size() << " designs (total " << corpus.size()
              << ")\n";
  }

  // Five-fold protocol for the five methods.
  util::TextTable table("Figure 5 (paper: Reward Only = 12% FNR / 87% TNR,"
                        " best trade-off)");
  table.set_header({"Method", "False Negative Rate", "True Negative Rate"});
  filter::EarlyStopConfig config;
  config.top_fraction = 0.05;  // scaled corpus: 1% of ~200 is too few
  config.smooth_fraction = 0.20;
  config.train.epochs = 40;
  const auto quarter_corpus = windowed(corpus, 0.25);  // the paper's K
  for (const auto method : filter::all_early_stop_methods()) {
    const auto folds =
        filter::cross_validate(method, config, quarter_corpus, 5, 777);
    double fnr = 0.0;
    double tnr = 0.0;
    for (const auto& f : folds) {
      fnr += f.false_negative_rate;
      tnr += f.true_negative_rate;
    }
    fnr /= static_cast<double>(folds.size());
    tnr /= static_cast<double>(folds.size());
    table.add_row({filter::early_stop_method_name(method),
                   util::format_double(fnr, 3),
                   util::format_double(tnr, 3)});
  }
  table.print(std::cout);
  bench::save_csv("fig5_earlystop.csv", table);

  // Ablation 1: label smoothing on vs off (Reward Only).
  util::TextTable ablation("Ablation — label smoothing (Reward Only)");
  ablation.set_header({"Variant", "FNR", "TNR"});
  for (const bool smoothing : {true, false}) {
    filter::EarlyStopConfig c = config;
    c.use_label_smoothing = smoothing;
    const auto folds = filter::cross_validate(
        filter::EarlyStopMethod::kRewardOnly, c, quarter_corpus, 5, 778);
    double fnr = 0.0, tnr = 0.0;
    for (const auto& f : folds) {
      fnr += f.false_negative_rate;
      tnr += f.true_negative_rate;
    }
    ablation.add_row({smoothing ? "top-20% smoothing (paper)" : "raw top labels",
                      util::format_double(fnr / folds.size(), 3),
                      util::format_double(tnr / folds.size(), 3)});
  }
  ablation.print(std::cout);
  bench::save_csv("fig5_ablation_smoothing.csv", ablation);

  // Ablation 2: early-window length K.
  util::TextTable window("Ablation — early-window length (Reward Only)");
  window.set_header({"Window (fraction of budget)", "FNR", "TNR"});
  for (const double frac : {0.125, 0.25, 0.5}) {
    const auto truncated = windowed(corpus, frac);
    const auto folds = filter::cross_validate(
        filter::EarlyStopMethod::kRewardOnly, config, truncated, 5, 779);
    double fnr = 0.0, tnr = 0.0;
    for (const auto& f : folds) {
      fnr += f.false_negative_rate;
      tnr += f.true_negative_rate;
    }
    window.add_row({util::format_double(frac, 3),
                    util::format_double(fnr / folds.size(), 3),
                    util::format_double(tnr / folds.size(), 3)});
  }
  window.print(std::cout);
  bench::save_csv("fig5_ablation_window.csv", window);

  std::cout << "[done] " << util::format_double(timer.seconds(), 1)
            << " s\n";
  return 0;
}
