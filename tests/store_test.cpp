// Tests for the persistent candidate store: canonical serialization and
// fingerprint stability, journal round-trip and crash recovery, shard
// planning, and cache/resume behaviour of store-backed search jobs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dsl/canonical.h"
#include "dsl/parser.h"
#include "env/abr_domain.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/search_job.h"
#include "store/candidate_store.h"
#include "store/convert.h"
#include "store/fingerprint.h"
#include "store/record_codec.h"
#include "store/shard.h"
#include "util/fs.h"
#include "util/scale.h"
#include "util/strings.h"

namespace nada::store {
namespace {

// A fresh journal path per test, cleaned of any previous run's leftovers.
std::string fresh_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("nada_store_test_" + name + ".jsonl"))
          .string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
  return path;
}

// Fresh binary journal path (plus sidecar/tmp leftovers cleaned).
std::string fresh_binary_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("nada_store_test_" + name + ".nsb"))
          .string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
  std::filesystem::remove(path + ".idx");
  std::filesystem::remove(path + ".idx.tmp");
  std::filesystem::remove(path + ".compact.tmp");
  return path;
}

StoreScope test_scope() { return StoreScope{"fcc", "test-digest"}; }

// Scoped NADA_STORE_FORMAT override with restore-on-exit.
class FormatEnvGuard {
 public:
  explicit FormatEnvGuard(const char* value) {
    const char* old = std::getenv("NADA_STORE_FORMAT");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv("NADA_STORE_FORMAT", value, 1);
    } else {
      ::unsetenv("NADA_STORE_FORMAT");
    }
  }
  ~FormatEnvGuard() {
    if (had_) {
      ::setenv("NADA_STORE_FORMAT", saved_.c_str(), 1);
    } else {
      ::unsetenv("NADA_STORE_FORMAT");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

OutcomeRecord make_test_record(std::uint64_t salt, Stage stage) {
  OutcomeRecord record;
  record.fingerprint = fingerprint_text("record-" + std::to_string(salt));
  record.stage = stage;
  record.id = "cand-" + std::to_string(salt);
  record.source = "emit \"x\" = " + std::to_string(salt) + ";\n";
  record.compiled = true;
  record.normalized = true;
  if (stage >= Stage::kProbed) {
    record.early_probed = true;
    record.early_rewards = {0.1 * static_cast<double>(salt), 0.5, -0.25};
  }
  if (stage >= Stage::kTrained) {
    record.fully_trained = true;
    record.test_score = 1.5 + static_cast<double>(salt);
    record.emulation_score = 0.75;
    record.curve_epochs = {8, 16, 24};
    record.median_curve = {0.2, 0.4, 0.6};
  }
  return record;
}

// ---- canonical serialization ----------------------------------------------

TEST(Canonical, FormattingAndNamingNormalized) {
  const std::string a =
      "let smooth = ema(throughput_mbps, 0.5);\n"
      "emit \"tput\" = smooth / 8.0;\n";
  const std::string b =
      "# an explanatory comment, as LLM output carries\n"
      "let s2=ema( throughput_mbps ,0.50 ) ;\n"
      "emit \"tput\"=( s2 / 8.00 );";
  const std::string ca = dsl::canonical_source(dsl::parse(a));
  const std::string cb = dsl::canonical_source(dsl::parse(b));
  EXPECT_EQ(ca, cb);
  EXPECT_NE(ca.find("v0"), std::string::npos);   // let binding renamed
  EXPECT_NE(ca.find("tput"), std::string::npos); // row name kept
}

TEST(Canonical, DistinctProgramsStayDistinct) {
  const auto a = dsl::canonical_source(
      dsl::parse("emit \"x\" = buffer_size_s / 10.0;"));
  const auto b = dsl::canonical_source(
      dsl::parse("emit \"x\" = buffer_size_s / 7.0;"));
  EXPECT_NE(a, b);
}

TEST(Canonical, FreeVariablesCannotCaptureRenamedBindings) {
  // "v0" as a free (input) reference must not collide with the canonical
  // name of a let binding — these programs are semantically different.
  const std::string bound = "let x = 1.0;\nemit \"r\" = x;";
  const std::string free_v0 = "let x = 1.0;\nemit \"r\" = v0;";
  EXPECT_NE(dsl::canonical_source(dsl::parse(bound)),
            dsl::canonical_source(dsl::parse(free_v0)));
  EXPECT_NE(fingerprint_state_source(bound), fingerprint_state_source(free_v0));
}

TEST(Canonical, ShadowedBindingsRenameConsistently) {
  const std::string a =
      "let t = throughput_mbps;\nlet t = t * 2.0;\nemit \"x\" = t;";
  const std::string b =
      "let u = throughput_mbps;\nlet w = u * 2.0;\nemit \"x\" = w;";
  EXPECT_EQ(dsl::canonical_source(dsl::parse(a)),
            dsl::canonical_source(dsl::parse(b)));
}

// ---- fingerprints ----------------------------------------------------------

TEST(Fingerprint, StableAcrossReformattedSources) {
  const std::string a = dsl::pensieve_state_source();
  // Reformat: inject comments and blank lines, keep the AST identical.
  std::string b = "# reformatted\n\n";
  for (char c : a) {
    b += c;
    if (c == ';') b += "   ";
  }
  EXPECT_EQ(fingerprint_state_source(a), fingerprint_state_source(b));
  EXPECT_NE(fingerprint_state_source(a),
            fingerprint_state_source("emit \"x\" = buffer_size_s;"));
}

TEST(Fingerprint, UnparsableSourcesHashByRawText) {
  const std::string broken = "let ) = 3;";
  EXPECT_EQ(fingerprint_state_source(broken),
            fingerprint_state_source("  " + broken + "\n"));
  EXPECT_NE(fingerprint_state_source(broken),
            fingerprint_state_source("let ( = 3;"));
}

TEST(Fingerprint, ArchEncodingCoversEveryField) {
  const nn::ArchSpec base = nn::ArchSpec::pensieve();
  EXPECT_EQ(fingerprint_arch(base), fingerprint_arch(nn::ArchSpec::pensieve()));
  nn::ArchSpec changed = base;
  changed.activation = nn::Activation::kLeakyRelu;
  EXPECT_NE(fingerprint_arch(base), fingerprint_arch(changed));
  changed = base;
  changed.shared_trunk = true;
  EXPECT_NE(fingerprint_arch(base), fingerprint_arch(changed));
  changed = base;
  changed.merge_layers += 1;
  EXPECT_NE(fingerprint_arch(base), fingerprint_arch(changed));
}

TEST(Fingerprint, CombineIsOrderSensitive) {
  const Fingerprint a = fingerprint_text("a");
  const Fingerprint b = fingerprint_text("b");
  EXPECT_NE(combine(a, b), combine(b, a));
  EXPECT_EQ(combine(a, b), combine(a, b));
}

TEST(Fingerprint, HexRoundTrip) {
  const Fingerprint fp = fingerprint_text("round trip");
  const auto parsed = Fingerprint::from_hex(fp.hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, fp);
  EXPECT_FALSE(Fingerprint::from_hex("zz").has_value());
  EXPECT_FALSE(
      Fingerprint::from_hex(std::string(32, 'g')).has_value());
}

// ---- candidate store -------------------------------------------------------

TEST(CandidateStore, RoundTripAllStages) {
  const std::string path = fresh_path("roundtrip");
  const auto checked = make_test_record(1, Stage::kChecked);
  auto probed = make_test_record(2, Stage::kProbed);
  probed.compile_error = "blew up \"late\"\nwith a newline";
  auto trained = make_test_record(3, Stage::kTrained);
  trained.arch = nn::ArchSpec::pensieve();
  trained.arch->temporal = nn::TemporalUnit::kLstm;
  trained.arch->shared_trunk = true;
  {
    CandidateStore store(path, test_scope());
    EXPECT_TRUE(store.put(checked));
    EXPECT_TRUE(store.put(probed));
    EXPECT_TRUE(store.put(trained));
  }
  CandidateStore reopened(path, test_scope());
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.recovered_line_errors(), 0u);

  const auto got = reopened.lookup(trained.fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);
  EXPECT_EQ(got->id, trained.id);
  EXPECT_EQ(got->source, trained.source);
  ASSERT_TRUE(got->arch.has_value());
  EXPECT_EQ(got->arch->temporal, nn::TemporalUnit::kLstm);
  EXPECT_TRUE(got->arch->shared_trunk);
  EXPECT_TRUE(got->fully_trained);
  EXPECT_DOUBLE_EQ(got->test_score, trained.test_score);
  EXPECT_EQ(got->curve_epochs, trained.curve_epochs);
  EXPECT_EQ(got->median_curve, trained.median_curve);

  const auto got_probed = reopened.lookup(probed.fingerprint);
  ASSERT_TRUE(got_probed.has_value());
  EXPECT_EQ(got_probed->compile_error, probed.compile_error);
  EXPECT_EQ(got_probed->early_rewards, probed.early_rewards);
  EXPECT_FALSE(got_probed->arch.has_value());
}

TEST(CandidateStore, PutIsMonotonePerFingerprint) {
  const std::string path = fresh_path("monotone");
  CandidateStore store(path, test_scope());
  auto record = make_test_record(7, Stage::kChecked);
  EXPECT_TRUE(store.put(record));
  EXPECT_FALSE(store.put(record));  // same stage: not re-journaled
  record.stage = Stage::kProbed;
  record.early_probed = true;
  record.early_rewards = {1.0};
  EXPECT_TRUE(store.put(record));
  record.stage = Stage::kChecked;  // regression attempt
  EXPECT_FALSE(store.put(record));
  EXPECT_EQ(store.size(), 1u);
  const auto got = store.lookup(record.fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kProbed);

  // Exactly two journal lines: one per accepted put.
  const std::string content = util::read_file(path);
  std::size_t lines = 0;
  for (char c : content) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(CandidateStore, RecoversFromTornFinalLine) {
  const std::string path = fresh_path("torn");
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kProbed));
    store.put(make_test_record(2, Stage::kTrained));
  }
  // Simulate a crash mid-append: keep the first record plus a prefix of the
  // second line.
  const std::string content = util::read_file(path);
  const std::size_t first_newline = content.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  const std::string torn =
      content.substr(0, first_newline + 1) +
      content.substr(first_newline + 1, (content.size() - first_newline) / 2);
  util::write_file_atomic(path, torn);

  CandidateStore recovered(path, test_scope());
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.recovered_line_errors(), 1u);
  EXPECT_TRUE(
      recovered.lookup(make_test_record(1, Stage::kProbed).fingerprint)
          .has_value());
  // The journal stays usable after recovery.
  EXPECT_TRUE(recovered.put(make_test_record(3, Stage::kChecked)));
  CandidateStore reopened(path, test_scope());
  EXPECT_EQ(reopened.size(), 2u);
}

TEST(CandidateStore, CompactRewritesUpgradesAndTornTail) {
  const std::string path = fresh_path("compact");
  {
    // A journal full of superseded stages: each record journaled at every
    // stage it passed through (3 + 2 + 1 = 6 lines for 3 fingerprints).
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kChecked));
    store.put(make_test_record(1, Stage::kProbed));
    store.put(make_test_record(1, Stage::kTrained));
    store.put(make_test_record(2, Stage::kChecked));
    store.put(make_test_record(2, Stage::kProbed));
    store.put(make_test_record(3, Stage::kChecked));
  }
  // Plus a crash's torn tail.
  {
    const std::string content = util::read_file(path);
    util::write_file_atomic(path,
                            content + "{\"fp\": \"deadbeef\", \"trunc");
  }

  CandidateStore store(path, test_scope());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.recovered_line_errors(), 1u);
  const std::size_t dropped = store.compact();
  // 7 meaningful lines on disk -> 3 latest-stage records.
  EXPECT_EQ(dropped, 4u);
  EXPECT_EQ(store.recovered_line_errors(), 0u);

  // The rewritten journal holds exactly one line per fingerprint, at the
  // furthest stage, and stays fully usable.
  {
    const std::string content = util::read_file(path);
    std::size_t lines = 0;
    for (char c : content) lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 3u);
  }
  const auto r1 = store.lookup(make_test_record(1, Stage::kChecked).fingerprint);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->stage, Stage::kTrained);
  EXPECT_TRUE(store.put(make_test_record(4, Stage::kChecked)));

  CandidateStore reopened(path, test_scope());
  EXPECT_EQ(reopened.size(), 4u);
  EXPECT_EQ(reopened.recovered_line_errors(), 0u);
  const auto r1_again =
      reopened.lookup(make_test_record(1, Stage::kChecked).fingerprint);
  ASSERT_TRUE(r1_again.has_value());
  EXPECT_EQ(r1_again->stage, Stage::kTrained);
  EXPECT_EQ(r1_again->test_score, make_test_record(1, Stage::kTrained).test_score);
  // Idempotent: a second compaction drops nothing.
  EXPECT_EQ(reopened.compact(), 0u);
  EXPECT_EQ(reopened.size(), 4u);
}

TEST(CandidateStore, ForeignScopeLinesAreSkipped) {
  const std::string path = fresh_path("scope");
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kChecked));
  }
  CandidateStore other(path, StoreScope{"fcc", "other-digest"});
  EXPECT_EQ(other.size(), 0u);
  EXPECT_EQ(other.recovered_line_errors(), 1u);
}

TEST(CandidateStore, MergeUnionsAndKeepsFurthestStage) {
  const std::string path_a = fresh_path("merge_a");
  const std::string path_b = fresh_path("merge_b");
  CandidateStore a(path_a, test_scope());
  CandidateStore b(path_b, test_scope());
  a.put(make_test_record(1, Stage::kChecked));
  a.put(make_test_record(2, Stage::kProbed));
  b.put(make_test_record(2, Stage::kTrained));  // same candidate, further
  b.put(make_test_record(3, Stage::kChecked));
  EXPECT_EQ(a.merge_from(b), 2u);
  EXPECT_EQ(a.size(), 3u);
  const auto got = a.lookup(make_test_record(2, Stage::kProbed).fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);

  CandidateStore mismatched(fresh_path("merge_c"),
                            StoreScope{"fcc", "other"});
  EXPECT_THROW((void)a.merge_from(mismatched), std::invalid_argument);
}

TEST(CandidateStore, DefaultPathHonorsEnvDir) {
  ::setenv("NADA_STORE_DIR", "/tmp/nada-test-stores", 1);
  const std::string path = default_store_path(test_scope());
  EXPECT_EQ(path.rfind("/tmp/nada-test-stores/", 0), 0u);
  EXPECT_NE(path.find("fcc-"), std::string::npos);
  ::unsetenv("NADA_STORE_DIR");
}

// ---- shard planning --------------------------------------------------------

TEST(ShardPlan, RangesPartitionTheWholeSpace) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 16u}) {
    const ShardPlan plan(n);
    EXPECT_EQ(plan.range(0).lo, 0u);
    EXPECT_EQ(plan.range(n - 1).hi, ~std::uint64_t{0});
    for (std::size_t s = 0; s + 1 < n; ++s) {
      EXPECT_EQ(plan.range(s).hi + 1, plan.range(s + 1).lo)
          << "gap between shards " << s << " and " << s + 1;
    }
  }
  EXPECT_THROW(ShardPlan(0), std::invalid_argument);
}

TEST(ShardPlan, ShardOfAgreesWithRanges) {
  const ShardPlan plan(5);
  for (int i = 0; i < 500; ++i) {
    const Fingerprint fp = fingerprint_text("candidate-" + std::to_string(i));
    const std::size_t shard = plan.shard_of(fp);
    ASSERT_LT(shard, 5u);
    const auto range = plan.range(shard);
    EXPECT_GE(fp.hi, range.lo);
    EXPECT_LE(fp.hi, range.hi);
  }
}

TEST(ShardPlan, PartitionCoversEveryCandidateOnce) {
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 200; ++i) {
    fps.push_back(fingerprint_text("p-" + std::to_string(i)));
  }
  const ShardPlan plan(4);
  const auto shards = plan.partition(fps);
  ASSERT_EQ(shards.size(), 4u);
  std::vector<bool> seen(fps.size(), false);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (std::size_t idx : shards[s]) {
      EXPECT_EQ(plan.shard_of(fps[idx]), s);
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(ShardPlan, MergeShardFilesUnionsWorkerStores) {
  const ShardPlan plan(3);
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < 3; ++s) {
    paths.push_back(fresh_path("shard" + std::to_string(s)));
  }
  // Three workers journal only the candidates their range owns.
  std::size_t total = 0;
  {
    std::vector<std::unique_ptr<CandidateStore>> workers;
    for (const auto& path : paths) {
      workers.push_back(std::make_unique<CandidateStore>(path, test_scope()));
    }
    for (std::uint64_t salt = 0; salt < 60; ++salt) {
      auto record = make_test_record(salt, Stage::kProbed);
      workers[plan.shard_of(record.fingerprint)]->put(record);
      ++total;
    }
  }
  const std::string merged_path = fresh_path("shard_merged");
  CandidateStore merged(merged_path, test_scope());
  EXPECT_EQ(merge_shard_files(paths, merged), total);
  EXPECT_EQ(merged.size(), total);
  for (std::uint64_t salt = 0; salt < 60; ++salt) {
    EXPECT_TRUE(
        merged.lookup(make_test_record(salt, Stage::kProbed).fingerprint)
            .has_value());
  }

  // A missing shard journal is a worker that never reported: loud failure,
  // not a silently empty merge.
  const std::vector<std::string> with_missing = {paths[0],
                                                 fresh_path("shard_gone")};
  EXPECT_THROW((void)merge_shard_files(with_missing, merged),
               std::runtime_error);
}

TEST(ShardPlan, MergeShardFilesFiltersMixedDomainJournals) {
  // One shard set serving two domains at once: every shard journal holds
  // ABR-scope and CC-scope lines interleaved (workers for both searches
  // sharing a store directory and shard files). A merge must accept
  // exactly the destination's scope and skip the other domain's records —
  // never alias them together.
  const StoreScope abr_scope{"4G", "abr-digest"};
  const StoreScope cc_scope{"cc-4G", "cc-digest"};
  const std::vector<std::uint64_t> salts = {0, 1, 2, 3, 4,
                                            10, 11, 12, 13, 14};
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < 2; ++s) {
    const std::string path = fresh_path("mixed_shard" + std::to_string(s));
    std::string content;
    for (std::size_t k = 5 * s; k < 5 * s + 5; ++k) {
      content += CandidateStore::encode_line(
                     make_test_record(salts[k], Stage::kProbed), abr_scope) +
                 "\n";
      content += CandidateStore::encode_line(
                     make_test_record(100 + salts[k], Stage::kTrained),
                     cc_scope) +
                 "\n";
    }
    util::write_file_atomic(path, content);
    paths.push_back(path);
  }

  CandidateStore abr_merged(fresh_path("mixed_abr"), abr_scope);
  EXPECT_EQ(merge_shard_files(paths, abr_merged), 10u);
  EXPECT_EQ(abr_merged.size(), 10u);
  for (std::uint64_t salt : salts) {
    const auto record = abr_merged.lookup(
        make_test_record(salt, Stage::kProbed).fingerprint);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->stage, Stage::kProbed);
    // The CC records with shifted salts never leaked in.
    EXPECT_FALSE(abr_merged
                     .lookup(make_test_record(100 + salt, Stage::kTrained)
                                 .fingerprint)
                     .has_value());
  }

  CandidateStore cc_merged(fresh_path("mixed_cc"), cc_scope);
  EXPECT_EQ(merge_shard_files(paths, cc_merged), 10u);
  EXPECT_EQ(cc_merged.size(), 10u);
  for (std::uint64_t salt : salts) {
    const auto record = cc_merged.lookup(
        make_test_record(100 + salt, Stage::kTrained).fingerprint);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->stage, Stage::kTrained);
    EXPECT_TRUE(record->fully_trained);
  }
}

// ---- binary record codec ---------------------------------------------------

namespace {

// A randomized record covering the whole field space: arbitrary bytes in
// strings (binary framing must not care), non-finite doubles (which the
// binary codec round-trips bit-exactly), optional arch blocks.
OutcomeRecord random_record(std::mt19937_64& rng) {
  auto byte = [&rng] { return static_cast<char>(rng() & 0xff); };
  auto text = [&](std::size_t max_len) {
    std::string s(rng() % (max_len + 1), '\0');
    for (char& c : s) c = byte();
    return s;
  };
  auto real = [&rng]() -> double {
    switch (rng() % 6) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return std::numeric_limits<double>::infinity();
      case 2: return -std::numeric_limits<double>::infinity();
      case 3: return std::numeric_limits<double>::denorm_min();
      default:
        return static_cast<double>(static_cast<std::int64_t>(rng())) / 3.0;
    }
  };
  auto reals = [&](std::size_t max_len) {
    std::vector<double> v(rng() % (max_len + 1));
    for (double& d : v) d = real();
    return v;
  };
  OutcomeRecord r;
  r.fingerprint.hi = rng() | 1;  // never the zero fingerprint
  r.fingerprint.lo = rng();
  r.stage = static_cast<Stage>(rng() % 3);
  r.id = text(24);
  r.source = text(64);
  r.compiled = (rng() & 1) != 0;
  r.compile_error = text(32);
  r.normalized = (rng() & 1) != 0;
  r.normalization_error = text(32);
  r.early_probed = (rng() & 1) != 0;
  r.early_rewards = reals(6);
  r.fully_trained = (rng() & 1) != 0;
  r.test_score = real();
  r.emulation_score = real();
  r.curve_epochs = reals(6);
  r.median_curve = reals(6);
  if ((rng() & 1) != 0) {
    nn::ArchSpec arch;
    arch.temporal = static_cast<nn::TemporalUnit>(rng() % 4);
    arch.activation = static_cast<nn::Activation>(rng() % 6);
    arch.shared_trunk = (rng() & 1) != 0;
    arch.conv_filters = rng() % 512;
    arch.conv_kernel = rng() % 16;
    arch.rnn_hidden = rng() % 512;
    arch.scalar_hidden = rng() % 512;
    arch.merge_hidden = rng() % 512;
    arch.merge_layers = rng() % 8;
    r.arch = arch;
  }
  return r;
}

}  // namespace

TEST(RecordCodec, RandomizedBinaryRoundTripProperty) {
  std::mt19937_64 rng(0x5eedULL);
  for (int trial = 0; trial < 300; ++trial) {
    StoreScope scope;
    scope.env = "env-" + std::to_string(rng() % 4);
    scope.config_digest = "digest-" + std::to_string(rng() % 4);
    const OutcomeRecord record = random_record(rng);
    const std::string frame = encode_record(record, scope);

    // Scope-preserving decode recovers scope + record, and re-encoding
    // reproduces the frame byte for byte (the strongest field-equality
    // check: it covers NaN/inf bit patterns JSON cannot express).
    const auto scoped = decode_record_any(frame);
    ASSERT_TRUE(scoped.has_value());
    EXPECT_EQ(scoped->scope, scope);
    EXPECT_EQ(encode_record(scoped->record, scoped->scope), frame);

    // Scope-filtered decode: accepts its own scope, rejects others.
    EXPECT_TRUE(decode_record(frame, scope).has_value());
    StoreScope other = scope;
    other.env += "-other";
    EXPECT_FALSE(decode_record(frame, other).has_value());

    // Any single flipped byte is detected (length, checksum, or body).
    std::string tampered = frame;
    const std::size_t pos = rng() % tampered.size();
    tampered[pos] = static_cast<char>(tampered[pos] ^ (1u << (rng() % 8)));
    EXPECT_FALSE(decode_record_any(tampered).has_value())
        << "flip at byte " << pos << " went undetected";
  }
}

TEST(StoreConvert, JsonlToBinaryToJsonlIsByteIdentical) {
  const std::string jsonl_path = fresh_path("convert_src");
  {
    // A realistic journal: per-fingerprint stage history (multiple lines
    // per record), plus a second scope's lines interleaved — conversion
    // must preserve all of it, order, duplicates, and scopes included.
    CandidateStore store(jsonl_path, test_scope());
    for (std::uint64_t salt = 0; salt < 8; ++salt) {
      store.put(make_test_record(salt, Stage::kChecked));
      if (salt % 2 == 0) store.put(make_test_record(salt, Stage::kProbed));
      if (salt % 4 == 0) store.put(make_test_record(salt, Stage::kTrained));
    }
  }
  {
    std::ofstream out(jsonl_path, std::ios::binary | std::ios::app);
    const StoreScope other{"other-env", "other-digest"};
    auto foreign = make_test_record(99, Stage::kTrained);
    foreign.arch = nn::ArchSpec::pensieve();
    out << CandidateStore::encode_line(foreign, other) << "\n";
  }
  const std::string original = util::read_file(jsonl_path);

  const std::string nsb_path = fresh_binary_path("convert_mid");
  const std::string back_path = fresh_path("convert_back");
  const auto to_bin = convert_journal(jsonl_path, nsb_path);
  EXPECT_EQ(to_bin.records, 15u);  // 8 + 4 + 2 + 1 foreign
  EXPECT_EQ(to_bin.skipped, 0u);
  const auto to_jsonl = convert_journal(nsb_path, back_path);
  EXPECT_EQ(to_jsonl.records, 15u);
  EXPECT_EQ(to_jsonl.skipped, 0u);
  EXPECT_EQ(util::read_file(back_path), original);

  // And the binary intermediate opens as a working store with the same
  // record set.
  CandidateStore store(nsb_path, test_scope());
  EXPECT_EQ(store.size(), 8u);
  const auto got = store.lookup(make_test_record(4, Stage::kTrained).fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);
}

// ---- binary store backend --------------------------------------------------

TEST(BinaryStore, RoundTripAllStagesThroughIndexedReopen) {
  const std::string path = fresh_binary_path("roundtrip");
  const auto checked = make_test_record(1, Stage::kChecked);
  auto probed = make_test_record(2, Stage::kProbed);
  probed.compile_error = "blew up \"late\"\nwith a newline";
  auto trained = make_test_record(3, Stage::kTrained);
  trained.arch = nn::ArchSpec::pensieve();
  trained.arch->temporal = nn::TemporalUnit::kLstm;
  trained.arch->shared_trunk = true;
  {
    CandidateStore store(path, test_scope());
    EXPECT_EQ(store.format(), StoreFormat::kBinary);
    EXPECT_TRUE(store.put(checked));
    EXPECT_TRUE(store.put(probed));
    EXPECT_TRUE(store.put(trained));
    EXPECT_EQ(store.size(), 3u);
    // Lookups served straight from the in-memory delta still read the
    // journal frame (one decode per hit).
    const auto got = store.lookup(probed.fingerprint);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->compile_error, probed.compile_error);
  }
  // Clean destruction persisted the sidecar: reopen touches no frame.
  CandidateStore reopened(path, test_scope());
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.recovered_line_errors(), 0u);
  EXPECT_EQ(reopened.decoded_frames(), 0u);

  const auto got = reopened.lookup(trained.fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(reopened.decoded_frames(), 1u);  // exactly one frame read
  EXPECT_EQ(got->stage, Stage::kTrained);
  EXPECT_EQ(got->id, trained.id);
  EXPECT_EQ(got->source, trained.source);
  ASSERT_TRUE(got->arch.has_value());
  EXPECT_EQ(got->arch->temporal, nn::TemporalUnit::kLstm);
  EXPECT_TRUE(got->arch->shared_trunk);
  EXPECT_DOUBLE_EQ(got->test_score, trained.test_score);
  EXPECT_EQ(got->curve_epochs, trained.curve_epochs);
  EXPECT_EQ(got->median_curve, trained.median_curve);
  EXPECT_FALSE(reopened.lookup(make_test_record(77, Stage::kChecked)
                                   .fingerprint)
                   .has_value());

  // records() matches the JSONL contract: latest record per fingerprint in
  // first-sighting order.
  const auto records = reopened.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].fingerprint.hex(), checked.fingerprint.hex());
  EXPECT_EQ(records[2].fingerprint.hex(), trained.fingerprint.hex());
}

TEST(BinaryStore, PutIsMonotoneAndAppendsOneFramePerAcceptedPut) {
  const std::string path = fresh_binary_path("monotone");
  CandidateStore store(path, test_scope());
  auto record = make_test_record(7, Stage::kChecked);
  EXPECT_TRUE(store.put(record));
  EXPECT_FALSE(store.put(record));  // same stage: not re-journaled
  const auto after_one = std::filesystem::file_size(path);
  record.stage = Stage::kProbed;
  record.early_probed = true;
  record.early_rewards = {1.0};
  EXPECT_TRUE(store.put(record));
  record.stage = Stage::kChecked;  // regression attempt
  EXPECT_FALSE(store.put(record));
  EXPECT_EQ(store.size(), 1u);
  const auto got = store.lookup(record.fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kProbed);
  // Exactly two frames: one per accepted put.
  const std::string content = util::read_file(path);
  const ScanStats stats = scan_binary_journal(
      std::string_view(content).substr(kBinaryJournalMagic.size()), nullptr);
  EXPECT_EQ(stats.frames, 2u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_GT(std::filesystem::file_size(path), after_one);
}

TEST(BinaryStore, TruncationAtEveryOffsetOfFinalRecordRecovers) {
  const std::string path = fresh_binary_path("torture_src");
  std::uint64_t final_frame_start = 0;
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kProbed));
    auto trained = make_test_record(2, Stage::kTrained);
    trained.arch = nn::ArchSpec::pensieve();
    store.put(trained);
    final_frame_start = std::filesystem::file_size(path);
    store.put(make_test_record(3, Stage::kTrained));
  }
  const std::string full = util::read_file(path);
  ASSERT_GT(full.size(), final_frame_start);

  const std::string work = fresh_binary_path("torture_work");
  for (std::uint64_t cut = final_frame_start; cut < full.size(); ++cut) {
    util::write_file_atomic(work, full.substr(0, cut));
    std::filesystem::remove(work + ".idx");
    CandidateStore recovered(work, test_scope());
    // Every durable prior record survives, at every truncation point.
    EXPECT_EQ(recovered.size(), 2u) << "cut at byte " << cut;
    EXPECT_TRUE(
        recovered.lookup(make_test_record(1, Stage::kProbed).fingerprint)
            .has_value())
        << "cut at byte " << cut;
    EXPECT_TRUE(
        recovered.lookup(make_test_record(2, Stage::kTrained).fingerprint)
            .has_value())
        << "cut at byte " << cut;
    // A torn partial frame counts as one recovered error and is truncated
    // away; cutting exactly at the frame boundary is a clean journal.
    const std::size_t expected_errors = cut == final_frame_start ? 0u : 1u;
    EXPECT_EQ(recovered.recovered_line_errors(), expected_errors)
        << "cut at byte " << cut;
    EXPECT_EQ(std::filesystem::file_size(work), final_frame_start)
        << "cut at byte " << cut;
    // The journal stays usable after recovery.
    EXPECT_TRUE(recovered.put(make_test_record(4, Stage::kChecked)));
  }
  // Spot-check the post-recovery append is durable.
  CandidateStore reopened(work, test_scope());
  EXPECT_EQ(reopened.size(), 3u);
}

TEST(BinaryStore, FlippedBodyByteIsSkippedOnRebuild) {
  const std::string path = fresh_binary_path("flip_rebuild");
  std::uint64_t second_frame_start = 0;
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kProbed));
    second_frame_start = std::filesystem::file_size(path);
    store.put(make_test_record(2, Stage::kTrained));
    store.put(make_test_record(3, Stage::kChecked));
  }
  std::string content = util::read_file(path);
  // Flip one byte inside the second record's checksummed body.
  const std::size_t victim = second_frame_start + kFrameHeaderBytes + 3;
  content[victim] = static_cast<char>(content[victim] ^ 0x40);
  util::write_file_atomic(path, content);
  std::filesystem::remove(path + ".idx");

  CandidateStore recovered(path, test_scope());
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.recovered_line_errors(), 1u);
  // Framing survived: the record AFTER the corrupt frame is still served.
  EXPECT_TRUE(
      recovered.lookup(make_test_record(3, Stage::kChecked).fingerprint)
          .has_value());
  EXPECT_FALSE(
      recovered.lookup(make_test_record(2, Stage::kTrained).fingerprint)
          .has_value());
}

TEST(BinaryStore, FlippedByteUnderValidSidecarIsDetectedAtLookup) {
  const std::string path = fresh_binary_path("flip_lazy");
  std::uint64_t second_frame_start = 0;
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kProbed));
    second_frame_start = std::filesystem::file_size(path);
    store.put(make_test_record(2, Stage::kTrained));
    store.put(make_test_record(3, Stage::kChecked));
  }
  std::string content = util::read_file(path);
  const std::size_t victim = second_frame_start + kFrameHeaderBytes + 3;
  content[victim] = static_cast<char>(content[victim] ^ 0x40);
  util::write_file_atomic(path, content);
  // The sidecar still matches the journal's length, so the open trusts it
  // (indexed opens never re-checksum every frame — that is the point).
  CandidateStore store(path, test_scope());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.decoded_frames(), 0u);
  EXPECT_EQ(store.recovered_line_errors(), 0u);
  // The flip surfaces lazily, at the one lookup that touches the frame:
  // a counted miss, not a crash, and other records are unaffected.
  EXPECT_FALSE(store.lookup(make_test_record(2, Stage::kTrained).fingerprint)
                   .has_value());
  EXPECT_EQ(store.recovered_line_errors(), 1u);
  EXPECT_TRUE(store.lookup(make_test_record(1, Stage::kProbed).fingerprint)
                  .has_value());
  EXPECT_TRUE(store.lookup(make_test_record(3, Stage::kChecked).fingerprint)
                  .has_value());
}

TEST(BinaryStore, CorruptOrMissingSidecarIsRebuilt) {
  const std::string path = fresh_binary_path("sidecar");
  {
    CandidateStore store(path, test_scope());
    for (std::uint64_t salt = 0; salt < 5; ++salt) {
      store.put(make_test_record(salt, Stage::kProbed));
    }
  }
  ASSERT_TRUE(util::file_exists(path + ".idx"));

  // Corrupt sidecar: entry checksum fails, full rebuild, no record lost.
  {
    std::string idx = util::read_file(path + ".idx");
    idx[idx.size() / 2] = static_cast<char>(idx[idx.size() / 2] ^ 0x01);
    util::write_file_atomic(path + ".idx", idx);
    CandidateStore store(path, test_scope());
    EXPECT_EQ(store.size(), 5u);
    EXPECT_EQ(store.recovered_line_errors(), 0u);
    for (std::uint64_t salt = 0; salt < 5; ++salt) {
      EXPECT_TRUE(
          store.lookup(make_test_record(salt, Stage::kProbed).fingerprint)
              .has_value());
    }
  }
  // The rebuild re-persisted a valid sidecar: next open is indexed again.
  {
    CandidateStore store(path, test_scope());
    EXPECT_EQ(store.size(), 5u);
    EXPECT_EQ(store.decoded_frames(), 0u);
  }
  // Deleted sidecar: same story.
  std::filesystem::remove(path + ".idx");
  {
    CandidateStore store(path, test_scope());
    EXPECT_EQ(store.size(), 5u);
    EXPECT_EQ(store.recovered_line_errors(), 0u);
  }
  // A sidecar built under a different scope is never trusted.
  {
    const std::string foreign = fresh_binary_path("sidecar_foreign");
    CandidateStore other(foreign, StoreScope{"other", "digest"});
    other.put(make_test_record(50, Stage::kProbed));
    other.rebuild_index();
    std::filesystem::copy_file(
        foreign + ".idx", path + ".idx",
        std::filesystem::copy_options::overwrite_existing);
    CandidateStore store(path, test_scope());
    EXPECT_EQ(store.size(), 5u);  // rebuilt, not borrowed
  }
}

TEST(BinaryStore, StaleSidecarTriggersTailScanOnly) {
  const std::string path = fresh_binary_path("tail_scan");
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kChecked));
    store.put(make_test_record(2, Stage::kProbed));
  }  // sidecar covers 2 records
  {
    // Append more records, then drop the store WITHOUT letting it persist:
    // simulate by copying the fresh sidecar back afterwards.
    const std::string idx_snapshot = util::read_file(path + ".idx");
    {
      CandidateStore store(path, test_scope());
      auto upgraded = make_test_record(2, Stage::kTrained);
      store.put(upgraded);
      store.put(make_test_record(3, Stage::kChecked));
    }
    util::write_file_atomic(path + ".idx", idx_snapshot);
  }
  CandidateStore store(path, test_scope());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.recovered_line_errors(), 0u);
  const auto got = store.lookup(make_test_record(2, Stage::kProbed).fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);  // tail upgrade won
  // Only the tail's 2 frames were decoded during recovery, not all 4.
  EXPECT_EQ(store.decoded_frames(), 2u + 1u /* the lookup */);
}

TEST(BinaryStore, ForeignScopeFramesAreSkipped) {
  const std::string path = fresh_binary_path("foreign");
  {
    CandidateStore store(path, StoreScope{"other-env", "other-digest"});
    store.put(make_test_record(1, Stage::kProbed));
    store.put(make_test_record(2, Stage::kTrained));
  }
  std::filesystem::remove(path + ".idx");
  CandidateStore store(path, test_scope());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.recovered_line_errors(), 2u);
  EXPECT_TRUE(store.put(make_test_record(3, Stage::kChecked)));
  EXPECT_EQ(store.size(), 1u);
}

TEST(BinaryStore, CompactDropsSupersededAndIsIdempotent) {
  const std::string path = fresh_binary_path("compact");
  {
    // Stage history journaling: 3 + 2 + 1 = 6 frames for 3 fingerprints.
    CandidateStore store(path, test_scope());
    for (int stage = 0; stage <= 2; ++stage) {
      store.put(make_test_record(1, static_cast<Stage>(stage)));
    }
    for (int stage = 0; stage <= 1; ++stage) {
      store.put(make_test_record(2, static_cast<Stage>(stage)));
    }
    store.put(make_test_record(3, Stage::kChecked));
  }
  CandidateStore store(path, test_scope());
  const auto before = std::filesystem::file_size(path);
  EXPECT_EQ(store.compact(), 3u);  // 6 frames -> 3 records
  EXPECT_LT(std::filesystem::file_size(path), before);
  EXPECT_EQ(store.size(), 3u);
  const auto got = store.lookup(make_test_record(1, Stage::kTrained).fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);

  // Idempotence: a second compact drops nothing and rewrites identical
  // bytes (journal and record set are already canonical).
  const std::string first_pass = util::read_file(path);
  EXPECT_EQ(store.compact(), 0u);
  EXPECT_EQ(util::read_file(path), first_pass);

  // The store stays writable and durable across compaction.
  EXPECT_TRUE(store.put(make_test_record(9, Stage::kProbed)));
  CandidateStore reopened(path, test_scope());
  EXPECT_EQ(reopened.size(), 4u);
}

TEST(ShardPlan, MixedFormatShardMergeMatchesAllJsonl) {
  // Three shard journals in mixed formats must merge byte-identically to
  // the same three journals all-JSONL — the supervisor may restart workers
  // under a different NADA_STORE_FORMAT mid-run.
  const std::vector<std::uint64_t> salts = {1, 2, 3, 4, 5, 6};
  auto fill = [&](CandidateStore& store, std::size_t begin, std::size_t end,
                  Stage stage) {
    for (std::size_t i = begin; i < end; ++i) {
      store.put(make_test_record(salts[i], stage));
    }
  };
  // JSONL originals.
  std::vector<std::string> jsonl_paths;
  for (int s = 0; s < 3; ++s) {
    jsonl_paths.push_back(fresh_path("mixfmt" + std::to_string(s)));
  }
  {
    CandidateStore s0(jsonl_paths[0], test_scope());
    fill(s0, 0, 4, Stage::kProbed);
    CandidateStore s1(jsonl_paths[1], test_scope());
    fill(s1, 2, 6, Stage::kTrained);  // overlaps s0 at stages above it
    CandidateStore s2(jsonl_paths[2], test_scope());
    fill(s2, 4, 6, Stage::kChecked);  // overlaps s1 at stages below it
  }
  // Mixed set: shard 1 converted to binary, others untouched.
  const std::string nsb_path = fresh_binary_path("mixfmt1");
  (void)convert_journal(jsonl_paths[1], nsb_path);
  const std::vector<std::string> mixed_paths = {jsonl_paths[0], nsb_path,
                                                jsonl_paths[2]};

  const std::string all_jsonl_dest = fresh_path("mixfmt_alljsonl");
  const std::string mixed_dest = fresh_path("mixfmt_mixed");
  const std::string binary_dest = fresh_binary_path("mixfmt_bin");
  std::size_t missing = 0;
  CandidateStore all_jsonl(all_jsonl_dest, test_scope());
  const std::size_t accepted_jsonl =
      merge_existing_shard_files(jsonl_paths, all_jsonl, &missing);
  EXPECT_EQ(missing, 0u);
  CandidateStore mixed(mixed_dest, test_scope());
  EXPECT_EQ(merge_existing_shard_files(mixed_paths, mixed, &missing),
            accepted_jsonl);
  CandidateStore binary(binary_dest, test_scope());
  EXPECT_EQ(merge_existing_shard_files(mixed_paths, binary, &missing),
            accepted_jsonl);

  // Byte-identical merged JSONL journals, and the binary destination holds
  // the same record set line for line.
  EXPECT_EQ(util::read_file(mixed_dest), util::read_file(all_jsonl_dest));
  const auto expect_records = all_jsonl.records();
  const auto binary_records = binary.records();
  ASSERT_EQ(binary_records.size(), expect_records.size());
  for (std::size_t i = 0; i < expect_records.size(); ++i) {
    EXPECT_EQ(CandidateStore::encode_line(binary_records[i], test_scope()),
              CandidateStore::encode_line(expect_records[i], test_scope()));
  }
}

TEST(CandidateStore, StoreFormatEnvDrivesExtensionAndDefaultPath) {
  {
    FormatEnvGuard guard(nullptr);
    EXPECT_EQ(store_format_from_env(), StoreFormat::kJsonl);
  }
  {
    FormatEnvGuard guard("binary");
    EXPECT_EQ(store_format_from_env(), StoreFormat::kBinary);
    ::setenv("NADA_STORE_DIR", "/tmp/nada_fmt_test", 1);
    const std::string path = default_store_path(test_scope());
    ::unsetenv("NADA_STORE_DIR");
    EXPECT_TRUE(path.ends_with(".nsb")) << path;
    EXPECT_EQ(format_for_path(path), StoreFormat::kBinary);
  }
  {
    FormatEnvGuard guard("jsonl");
    EXPECT_EQ(store_format_from_env(), StoreFormat::kJsonl);
  }
  {
    FormatEnvGuard guard("parquet");  // typo / unsupported: loud failure
    EXPECT_THROW((void)store_format_from_env(), std::runtime_error);
  }
  EXPECT_EQ(journal_extension(StoreFormat::kJsonl), std::string(".jsonl"));
  EXPECT_EQ(journal_extension(StoreFormat::kBinary), std::string(".nsb"));
  EXPECT_EQ(format_for_path("a/b/x.jsonl"), StoreFormat::kJsonl);
  EXPECT_EQ(format_for_path("a/b/x.nsb"), StoreFormat::kBinary);
}

TEST(BinaryStore, MillionRecordOpenIsIndexTimeAndLookupIsLazy) {
  // The acceptance pin for the whole backend: a journal at (scaled)
  // million-candidate size opens in under 100 ms through its sidecar and
  // serves a cache hit after deserializing exactly one frame. Full scale
  // runs in CI's store-format-smoke job via NADA_SCALE_GEN=1.
  const auto scale = util::ScaleConfig::from_env();
  const std::size_t n = scale.gen_count(1'000'000, 50'000);
  const std::string path = fresh_binary_path("million");

  // Synthesize the journal directly through the codec (put()'s
  // flush-per-append durability is the wrong tool for bulk fixture
  // generation).
  auto nth_fingerprint = [](std::size_t i) {
    Fingerprint fp;
    fp.hi = util::mix64(0x9e3779b97f4a7c15ULL + i);
    fp.lo = util::mix64(0x2545f4914f6cdd1dULL ^ i) | 1;
    return fp;
  };
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(kBinaryJournalMagic.data(),
              static_cast<std::streamsize>(kBinaryJournalMagic.size()));
    std::string buffer;
    for (std::size_t i = 0; i < n; ++i) {
      OutcomeRecord r;
      r.fingerprint = nth_fingerprint(i);
      r.stage = Stage::kProbed;
      r.id = "cand-" + std::to_string(i);
      r.source = "emit \"x\" = " + std::to_string(i) + ";\n";
      r.compiled = true;
      r.normalized = true;
      r.early_probed = true;
      r.early_rewards = {0.25, 0.5, 0.75};
      buffer += encode_record(r, test_scope());
      if (buffer.size() > (1u << 20)) {
        out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
        buffer.clear();
      }
    }
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    ASSERT_TRUE(out.good());
  }
  {
    // First open pays the one-time index build (O(records)), and persists
    // the sidecar for every open after it.
    CandidateStore store(path, test_scope());
    ASSERT_EQ(store.size(), n);
  }

  const auto t0 = std::chrono::steady_clock::now();
  CandidateStore store(path, test_scope());
  const auto open_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(store.size(), n);
  // The allocation guard: an indexed open materialized zero records.
  EXPECT_EQ(store.decoded_frames(), 0u);
  EXPECT_LT(open_ms, 100.0) << "indexed open of " << n << " records";

  // One cache hit = exactly one frame deserialized.
  const auto got = store.lookup(nth_fingerprint(n / 2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, "cand-" + std::to_string(n / 2));
  EXPECT_EQ(store.decoded_frames(), 1u);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".idx");
}

// ---- generator replay ------------------------------------------------------

TEST(GeneratorReplay, ResetReplaysTheExactStream) {
  gen::StateGenerator state_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                42);
  const auto first = state_gen.generate_batch(20);
  state_gen.reset();
  const auto replayed = state_gen.generate_batch(20);
  ASSERT_EQ(first.size(), replayed.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, replayed[i].id);
    EXPECT_EQ(first[i].source, replayed[i].source);
  }

  gen::ArchGenerator arch_gen(gen::gpt35_profile(), gen::PromptStrategy{},
                              43);
  const auto archs = arch_gen.generate_batch(20);
  arch_gen.reset();
  const auto archs2 = arch_gen.generate_batch(20);
  for (std::size_t i = 0; i < archs.size(); ++i) {
    EXPECT_EQ(archs[i].id, archs2[i].id);
    EXPECT_EQ(fingerprint_arch(archs[i].spec),
              fingerprint_arch(archs2[i].spec));
  }
}

// ---- search integration ----------------------------------------------------

search::SearchConfig tiny_config() {
  search::SearchConfig config;
  config.num_candidates = 30;
  config.early_epochs = 8;
  config.full_train_top = 3;
  config.seeds = 2;
  config.train.epochs = 24;
  config.train.test_interval = 8;
  config.train.max_eval_traces = 4;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = 8;
  arch.scalar_hidden = 8;
  arch.merge_hidden = 16;
  config.baseline_arch = arch;
  return config;
}

struct SearchFixture {
  trace::Dataset dataset = trace::build_dataset(trace::Environment::kStarlink,
                                                0.2, 99);
  video::Video video = video::make_test_video(video::pensieve_ladder(), 7);
  env::AbrDomain domain{dataset, video};
  util::ThreadPool pool{8};

  [[nodiscard]] StoreScope scope(const search::SearchConfig& config,
                                 std::uint64_t seed) const {
    return search::store_scope(domain, config, seed);
  }

  /// One pooled job over `source` against `store` (may be null); `resume`
  /// goes through SearchJob::resume() instead of run_to_completion().
  search::SearchResult run(const search::SearchConfig& config,
                           std::uint64_t seed, search::CandidateSource& source,
                           search::FixedDesign fixed, CandidateStore* store,
                           bool resume = false) {
    search::JobOptions options;
    options.store = store;
    options.pool = &pool;
    search::SearchJob job(domain, config, seed, source, fixed, options);
    return resume ? job.resume() : job.run_to_completion();
  }
};

void expect_same_ranked_result(const search::SearchResult& a,
                               const search::SearchResult& b) {
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.n_fully_trained, b.n_fully_trained);
  EXPECT_EQ(a.n_early_stopped, b.n_early_stopped);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].compiled, b.outcomes[i].compiled);
    EXPECT_EQ(a.outcomes[i].normalized, b.outcomes[i].normalized);
    EXPECT_EQ(a.outcomes[i].early_stopped, b.outcomes[i].early_stopped);
    EXPECT_EQ(a.outcomes[i].fully_trained, b.outcomes[i].fully_trained);
    EXPECT_DOUBLE_EQ(a.outcomes[i].test_score, b.outcomes[i].test_score);
  }
}

TEST(SearchStore, SecondRunServesEverythingFromCache) {
  SearchFixture fx;
  const std::string path = fresh_path("pipeline_cache");
  const search::SearchConfig config = tiny_config();
  const search::FixedDesign fixed{nullptr, &config.baseline_arch};

  CandidateStore store1(path, fx.scope(config, 1234));
  gen::StateGenerator gen1(gen::gpt4_profile(), gen::PromptStrategy{}, 77);
  search::StateCandidateSource source1(gen1);
  const auto run1 = fx.run(config, 1234, source1, fixed, &store1);
  EXPECT_GT(run1.n_probes_run, 0u);
  EXPECT_GT(run1.n_full_trains_run, 0u);
  EXPECT_EQ(run1.cache_hits(), 0u);

  // A fresh process: new job, the journal reopened from disk, the same
  // generator stream.
  CandidateStore store2(path, fx.scope(config, 1234));
  gen::StateGenerator gen2(gen::gpt4_profile(), gen::PromptStrategy{}, 77);
  search::StateCandidateSource source2(gen2);
  const auto run2 = fx.run(config, 1234, source2, fixed, &store2);

  // Zero duplicate work: no probes, no full-training runs.
  EXPECT_EQ(run2.n_probes_run, 0u);
  EXPECT_EQ(run2.n_full_trains_run, 0u);
  EXPECT_EQ(run2.n_precheck_cache_hits, run2.n_total);
  EXPECT_EQ(run2.n_full_cache_hits, run1.n_full_trains_run);
  expect_same_ranked_result(run1, run2);
}

TEST(SearchStore, ResumesFromTruncatedCheckpointToSameResult) {
  SearchFixture fx;
  const std::string path = fresh_path("pipeline_resume_full");
  const search::SearchConfig config = tiny_config();
  const search::FixedDesign fixed{nullptr, &config.baseline_arch};

  CandidateStore store1(path, fx.scope(config, 4321));
  gen::StateGenerator gen1(gen::gpt4_profile(), gen::PromptStrategy{}, 88);
  search::StateCandidateSource source1(gen1);
  const auto full_run = fx.run(config, 4321, source1, fixed, &store1);
  EXPECT_GT(full_run.n_full_trains_run, 0u);

  // Simulate a crash mid-way through the full-training stage: keep the
  // journal up to the first trained record, torn half-way through it.
  const std::string content = util::read_file(path);
  const std::size_t first_trained = content.find("\"stage\":2");
  ASSERT_NE(first_trained, std::string::npos);
  const std::size_t line_start = content.rfind('\n', first_trained) + 1;
  const std::size_t line_end = content.find('\n', first_trained);
  ASSERT_NE(line_end, std::string::npos);
  const std::string interrupted_journal =
      content.substr(0, line_start) +
      content.substr(line_start, (line_end - line_start) / 2);
  const std::string resume_path = fresh_path("pipeline_resume_torn");
  util::write_file_atomic(resume_path, interrupted_journal);

  CandidateStore store2(resume_path, fx.scope(config, 4321));
  EXPECT_EQ(store2.recovered_line_errors(), 1u);
  gen::StateGenerator gen2(gen::gpt4_profile(), gen::PromptStrategy{}, 88);
  search::StateCandidateSource source2(gen2);
  const auto resumed_run =
      fx.run(config, 4321, source2, fixed, &store2, /*resume=*/true);

  // Prechecks and probes come from the checkpoint; only full training
  // (whose records were lost in the crash) re-executes.
  EXPECT_EQ(resumed_run.n_probes_run, 0u);
  EXPECT_EQ(resumed_run.n_full_trains_run, full_run.n_full_trains_run);
  expect_same_ranked_result(full_run, resumed_run);
}

TEST(SearchStore, ArchSearchCachesAcrossRuns) {
  SearchFixture fx;
  const std::string path = fresh_path("pipeline_arch_cache");
  search::SearchConfig config = tiny_config();
  config.num_candidates = 20;
  const auto state =
      dsl::StateProgram::compile(dsl::pensieve_state_source());
  const search::FixedDesign fixed{&state, nullptr};

  CandidateStore store1(path, fx.scope(config, 555));
  gen::ArchGenerator gen1(gen::gpt35_profile(), gen::PromptStrategy{}, 99,
                          0.25);
  search::ArchCandidateSource source1(gen1);
  const auto run1 = fx.run(config, 555, source1, fixed, &store1);
  EXPECT_GT(run1.n_full_trains_run, 0u);

  CandidateStore store2(path, fx.scope(config, 555));
  gen::ArchGenerator gen2(gen::gpt35_profile(), gen::PromptStrategy{}, 99,
                          0.25);
  search::ArchCandidateSource source2(gen2);
  const auto run2 =
      fx.run(config, 555, source2, fixed, &store2, /*resume=*/true);
  EXPECT_EQ(run2.n_probes_run, 0u);
  EXPECT_EQ(run2.n_full_trains_run, 0u);
  expect_same_ranked_result(run1, run2);
}

TEST(SearchStore, InBatchClonesShareOneProbe) {
  // Even without a store, candidates with identical content (same state
  // fingerprint, same arch) must probe exactly once: n_probes_run equals
  // the number of distinct fingerprints among normalized candidates.
  SearchFixture fx;
  const search::SearchConfig config = tiny_config();
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                33);
  search::StateCandidateSource source(generator);
  const auto result =
      fx.run(config, 2468, source,
             search::FixedDesign{nullptr, &config.baseline_arch}, nullptr);
  const Fingerprint arch_fp = fingerprint_arch(config.baseline_arch);
  std::set<std::string> distinct;
  for (const auto& outcome : result.outcomes) {
    if (outcome.compiled && outcome.normalized) {
      distinct.insert(
          combine(fingerprint_state_source(outcome.source), arch_fp).hex());
    }
  }
  EXPECT_EQ(result.n_probes_run, distinct.size());
}

TEST(SearchStore, JobRejectsMismatchedScope) {
  SearchFixture fx;
  const search::SearchConfig config = tiny_config();
  CandidateStore wrong(fresh_path("wrong_scope"),
                       StoreScope{"fcc", "not-this-pipeline"});
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                7);
  search::StateCandidateSource source(generator);
  search::JobOptions options;
  options.store = &wrong;
  EXPECT_THROW(search::SearchJob(fx.domain, config, 1, source,
                                 search::FixedDesign{nullptr,
                                                     &config.baseline_arch},
                                 options),
               std::invalid_argument);

  // Different funnel budgets => different scope digests.
  search::SearchConfig other = config;
  other.early_epochs += 4;
  EXPECT_NE(fx.scope(config, 1).config_digest,
            fx.scope(other, 1).config_digest);
  EXPECT_EQ(fx.scope(config, 1).env, "Starlink");

  // Same environment but different traces (another dataset build seed)
  // must not alias either: results are only reusable on the same data.
  const trace::Dataset other_data =
      trace::build_dataset(trace::Environment::kStarlink, 0.2, 100);
  const env::AbrDomain other_env(other_data, fx.video);
  EXPECT_NE(fx.scope(config, 1).config_digest,
            search::store_scope(other_env, config, 1).config_digest);
}

TEST(SearchStore, ResumeWithoutStoreThrows) {
  SearchFixture fx;
  const search::SearchConfig config = tiny_config();
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                7);
  search::StateCandidateSource source(generator);
  EXPECT_THROW((void)fx.run(config, 1, source,
                            search::FixedDesign{nullptr,
                                                &config.baseline_arch},
                            nullptr, /*resume=*/true),
               std::logic_error);
}

}  // namespace
}  // namespace nada::store
