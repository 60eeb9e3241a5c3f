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

#include "cc/cc_domain.h"
#include "dsl/canonical.h"
#include "dsl/parser.h"
#include "env/abr_domain.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "nn/mat_kernels.h"
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

#include "journal_lines.h"

namespace nada::store {
namespace {

// A fresh journal path per test, cleaned of any previous run's leftovers
// (journal, sidecar, and tmp files).
std::string fresh_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("nada_store_test_" + name + ".nsb"))
          .string();
  for (const char* suffix : {"", ".tmp", ".idx", ".idx.tmp", ".compact.tmp"}) {
    std::filesystem::remove(path + suffix);
  }
  return path;
}

// A fresh path for a JSONL export/import file.
std::string fresh_jsonl_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("nada_store_test_" + name + ".jsonl"))
          .string();
  std::filesystem::remove(path);
  return path;
}

StoreScope test_scope() { return StoreScope{"fcc", "test-digest"}; }

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
  bool parsed = false;
  EXPECT_EQ(fingerprint_state_source(a, &parsed), fingerprint_state_source(b));
  EXPECT_TRUE(parsed);
  // An already parsed program hashes to the same canonical-domain key.
  EXPECT_EQ(fingerprint_state_program(dsl::parse(b)),
            fingerprint_state_source(a));
  EXPECT_NE(fingerprint_state_source(a),
            fingerprint_state_source("emit \"x\" = buffer_size_s;"));
}

TEST(Fingerprint, UnparsableSourcesHashByRawText) {
  const std::string broken = "let ) = 3;";
  bool parsed = true;
  EXPECT_EQ(fingerprint_state_source(broken, &parsed),
            fingerprint_state_source("  " + broken + "\n"));
  EXPECT_FALSE(parsed);
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
  EXPECT_TRUE(path.ends_with(".nsb")) << path;
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

  // A missing journal is a worker that died before its first append:
  // skipped and counted, while the journals that exist still merge (the
  // driver's funnel pass recomputes whatever the merge lacks).
  CandidateStore partial(fresh_path("shard_partial"), test_scope());
  const std::vector<std::string> with_missing = {
      paths[0], fresh_path("shard_gone"), paths[2]};
  std::size_t missing = 0;
  const std::size_t kept = merge_shard_files(with_missing, partial, &missing);
  EXPECT_EQ(missing, 1u);
  EXPECT_EQ(kept, partial.size());
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, total);

  // A path that exists but is not a journal is still refused.
  const std::string foreign = fresh_path("shard_foreign");
  util::write_file_atomic(foreign, "not a journal\n");
  const std::vector<std::string> with_foreign = {paths[0], foreign};
  EXPECT_THROW((void)merge_shard_files(with_foreign, merged),
               std::runtime_error);
}

TEST(ShardPlan, MergeShardFilesFiltersMixedDomainJournals) {
  // One shard set serving two domains at once: every shard journal holds
  // ABR-scope and CC-scope frames interleaved (workers for both searches
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
    std::string content(kBinaryJournalMagic);
    for (std::size_t k = 5 * s; k < 5 * s + 5; ++k) {
      content += encode_record(make_test_record(salts[k], Stage::kProbed),
                               abr_scope);
      content += encode_record(
          make_test_record(100 + salts[k], Stage::kTrained), cc_scope);
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

TEST(StoreConvert, ExportImportRoundTripIsByteIdentical) {
  const std::string journal = fresh_path("convert_src");
  {
    // A realistic journal: per-fingerprint stage history (multiple frames
    // per record), plus a second scope's frame appended — conversion must
    // preserve all of it, order, duplicates, and scopes included.
    CandidateStore store(journal, test_scope());
    for (std::uint64_t salt = 0; salt < 8; ++salt) {
      store.put(make_test_record(salt, Stage::kChecked));
      if (salt % 2 == 0) store.put(make_test_record(salt, Stage::kProbed));
      if (salt % 4 == 0) store.put(make_test_record(salt, Stage::kTrained));
    }
  }
  {
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    const StoreScope other{"other-env", "other-digest"};
    auto foreign = make_test_record(99, Stage::kTrained);
    foreign.arch = nn::ArchSpec::pensieve();
    out << encode_record(foreign, other);
  }
  const std::string original = util::read_file(journal);

  // run.nsb -> a.jsonl -> b.nsb -> c.jsonl: the exports match byte for
  // byte, and so does the re-imported journal.
  const std::string a_path = fresh_jsonl_path("convert_a");
  const std::string b_path = fresh_path("convert_b");
  const std::string c_path = fresh_jsonl_path("convert_c");
  const auto exported = convert_journal(journal, a_path);
  EXPECT_EQ(exported.records, 15u);  // 8 + 4 + 2 + 1 foreign
  EXPECT_EQ(exported.skipped, 0u);
  const auto imported = convert_journal(a_path, b_path);
  EXPECT_EQ(imported.records, 15u);
  EXPECT_EQ(imported.skipped, 0u);
  (void)convert_journal(b_path, c_path);
  EXPECT_EQ(util::read_file(c_path), util::read_file(a_path));
  EXPECT_EQ(util::read_file(b_path), original);

  // And the imported journal opens as a working store with the same
  // record set.
  CandidateStore store(b_path, test_scope());
  EXPECT_EQ(store.size(), 8u);
  const auto got = store.lookup(make_test_record(4, Stage::kTrained).fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);
}

TEST(StoreConvert, LegacyJsonlJournalIsRefusedThenMigrates) {
  // A journal written by the retired JSONL backend: stage history lines
  // for six fingerprints.
  const std::string legacy = fresh_jsonl_path("legacy");
  std::vector<OutcomeRecord> history;
  // Each fingerprint's history climbs in stage, so its last line is the
  // record the store must hold: latest stage, first-sighting order.
  std::vector<std::string> expected;
  for (std::uint64_t salt = 0; salt < 6; ++salt) {
    history.push_back(make_test_record(salt, Stage::kChecked));
    if (salt % 2 == 0) {
      history.push_back(make_test_record(salt, Stage::kProbed));
    }
    if (salt % 3 == 0) {
      history.push_back(make_test_record(salt, Stage::kTrained));
    }
    expected.push_back(
        CandidateStore::encode_line(history.back(), test_scope()));
  }
  std::string content;
  for (const auto& record : history) {
    content += CandidateStore::encode_line(record, test_scope()) + "\n";
  }
  util::write_file_atomic(legacy, content);

  // Opening it as a store fails loudly, names the migration tool, and
  // leaves the file untouched.
  try {
    CandidateStore store(legacy, test_scope());
    FAIL() << "a JSONL journal opened as a store";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("tools/store_convert"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(util::read_file(legacy), content);
  EXPECT_FALSE(util::file_exists(legacy + ".idx"));

  // Migrated, it holds the JSONL source's records.
  const std::string migrated = fresh_path("legacy_migrated");
  EXPECT_EQ(convert_journal(legacy, migrated).records, history.size());
  const CandidateStore store(migrated, test_scope());
  std::vector<std::string> got;
  for (const auto& record : store.records()) {
    got.push_back(CandidateStore::encode_line(record, test_scope()));
  }
  EXPECT_EQ(got, expected);
}

// ---- binary store backend --------------------------------------------------

TEST(BinaryStore, RoundTripAllStagesThroughIndexedReopen) {
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

  // records(): latest record per fingerprint in first-sighting order.
  const auto records = reopened.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].fingerprint.hex(), checked.fingerprint.hex());
  EXPECT_EQ(records[2].fingerprint.hex(), trained.fingerprint.hex());
}

TEST(BinaryStore, PutIsMonotoneAndAppendsOneFramePerAcceptedPut) {
  const std::string path = fresh_path("monotone");
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
  const std::string path = fresh_path("torture_src");
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

  const std::string work = fresh_path("torture_work");
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
  const std::string path = fresh_path("flip_rebuild");
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
  const std::string path = fresh_path("flip_lazy");
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
  const std::string path = fresh_path("sidecar");
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
    const std::string foreign = fresh_path("sidecar_foreign");
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

TEST(BinaryStore, SidecarEntryCountOverflowIsRebuilt) {
  const std::string path = fresh_path("sidecar_overflow");
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kProbed));
  }
  const std::string idx = util::read_file(path + ".idx");
  // Bit 59 of the header's u64 entry count (bytes 16..23, little-endian):
  // n_entries * 32 wraps back to the true size, so only an explicit bound
  // on the count rejects it.
  std::string flipped = idx;
  flipped[16 + 7] = static_cast<char>(flipped[16 + 7] ^ 0x08);
  util::write_file_atomic(path + ".idx", flipped);

  CandidateStore store(path, test_scope());
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.decoded_frames(), 1u);  // the rebuild scan read the frame
  EXPECT_EQ(util::read_file(path + ".idx"), idx);
  EXPECT_TRUE(
      store.lookup(make_test_record(1, Stage::kProbed).fingerprint)
          .has_value());
}

TEST(BinaryStore, StaleSidecarTriggersTailScanOnly) {
  const std::string path = fresh_path("tail_scan");
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
  const std::string path = fresh_path("foreign");
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
  const std::string path = fresh_path("compact");
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

TEST(BinaryStore, MillionRecordOpenIsIndexTimeAndLookupIsLazy) {
  // The acceptance pin for the whole backend: a journal at (scaled)
  // million-candidate size opens in under 100 ms through its sidecar and
  // serves a cache hit after deserializing exactly one frame. Full scale
  // runs in CI's million-record open-path step via NADA_SCALE_GEN=1.
  const auto scale = util::ScaleConfig::from_env();
  const std::size_t n = scale.gen_count(1'000'000, 50'000);
  const std::string path = fresh_path("million");

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
  std::optional<std::uint64_t> torn_end;
  scan_binary_journal(
      std::string_view(content).substr(kBinaryJournalMagic.size()),
      [&](std::uint64_t offset, std::string_view frame) {
        const auto scoped = decode_record_any(frame);
        if (!torn_end && scoped && scoped->record.stage == Stage::kTrained) {
          torn_end = kBinaryJournalMagic.size() + offset + frame.size() / 2;
        }
      });
  ASSERT_TRUE(torn_end.has_value());
  const std::string resume_path = fresh_path("pipeline_resume_torn");
  util::write_file_atomic(resume_path, content.substr(0, *torn_end));

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

TEST(SearchStore, ResumesFromPrecheckOnlyJournalToSameResult) {
  // A run cut between pre-check and probe leaves only kChecked records.
  // Resuming serves every pre-check verdict from them, still probes every
  // passing candidate, and ends with the cold run's result and journal.
  SearchFixture fx;
  const std::string cold_path = fresh_path("pipeline_precheck_cold");
  const std::string cut_path = fresh_path("pipeline_precheck_cut");
  const search::SearchConfig config = tiny_config();
  const search::FixedDesign fixed{nullptr, &config.baseline_arch};

  search::SearchResult cold;
  {
    CandidateStore store(cold_path, fx.scope(config, 2024));
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  66);
    search::StateCandidateSource source(generator);
    cold = fx.run(config, 2024, source, fixed, &store);
  }
  EXPECT_GT(cold.n_probes_run, 0u);

  search::SearchResult resumed;
  {
    CandidateStore store(cut_path, fx.scope(config, 2024));
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  66);
    search::StateCandidateSource source(generator);
    search::JobOptions options;
    options.store = &store;
    options.pool = &fx.pool;
    search::SearchJob cut(fx.domain, config, 2024, source, fixed, options);
    (void)cut.run_until(search::StageKind::kProbe);
    for (const auto& record : store.records()) {
      EXPECT_EQ(record.stage, Stage::kChecked);
    }
    resumed = fx.run(config, 2024, source, fixed, &store, /*resume=*/true);
  }
  EXPECT_EQ(resumed.n_precheck_cache_hits, resumed.n_total);
  EXPECT_EQ(resumed.n_probes_run, cold.n_probes_run);
  EXPECT_EQ(resumed.n_full_trains_run, cold.n_full_trains_run);
  expect_same_ranked_result(cold, resumed);
  EXPECT_EQ(test::sorted_journal_lines(cut_path),
            test::sorted_journal_lines(cold_path));
}

TEST(SearchStore, CompiledRecordForUnparsableSourceIsAMiss) {
  // A record claiming a source compiled, for a source that does not parse
  // (a fingerprint collision or a foreign journal), is not served: the
  // candidate is pre-checked on its own merits instead.
  SearchFixture fx;
  const std::string path = fresh_path("pipeline_unparsable_hit");
  search::SearchConfig config = tiny_config();
  config.num_candidates = 2;
  config.full_train_top = 1;
  const search::FixedDesign fixed{nullptr, &config.baseline_arch};
  const std::string broken = "emit \"x\" = (buffer_size_s + ;";
  std::string parse_error;
  try {
    (void)dsl::parse(broken);
  } catch (const dsl::CompileError& e) {
    parse_error = e.what();
  }
  ASSERT_FALSE(parse_error.empty());

  CandidateStore store(path, fx.scope(config, 99));
  OutcomeRecord planted;
  planted.fingerprint = search::fingerprint_of(
      search::CandidateSpec::state_program("planted", broken), fixed);
  planted.stage = Stage::kProbed;
  planted.id = "planted";
  planted.source = broken;
  planted.compiled = true;
  planted.normalized = true;
  planted.early_probed = true;
  planted.early_rewards = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(store.put(planted));

  search::VectorCandidateSource source(
      {search::CandidateSpec::state_program("broken", broken),
       search::CandidateSpec::state_program("good",
                                            dsl::pensieve_state_source())});
  const auto result = fx.run(config, 99, source, fixed, &store);
  ASSERT_EQ(result.outcomes.size(), 2u);
  EXPECT_FALSE(result.outcomes[0].compiled);
  EXPECT_EQ(result.outcomes[0].compile_error, parse_error);
  EXPECT_FALSE(result.outcomes[0].early_probed);
  EXPECT_EQ(result.n_precheck_cache_hits, 0u);
  EXPECT_EQ(result.n_probes_run, 1u);
  EXPECT_TRUE(result.outcomes[1].early_probed);
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

// The scope digest is the key every journal is filed under, so a change to
// search::store_scope that moves it silently orphans every journal on disk
// (the tests above compare digests only with each other). Both configs are
// literals, unscaled by NADA_SCALE_*; the kernel flavor never feeds the
// digest, so scalar and avx2 read the same values.
TEST(SearchStore, ScopeDigestsArePinned) {
  SearchFixture fx;
  const trace::Dataset cc_data =
      trace::build_dataset(trace::Environment::k4G, 0.2, 1234);
  cc::CcConfig cc_config;
  cc_config.steps_per_episode = 30;
  cc_config.init_rate_mbps = 2.0;
  const cc::CcDomain cc_domain(cc_data, cc_config);
  search::SearchConfig cc_search;
  cc_search.num_candidates = 20;
  cc_search.early_epochs = 4;
  cc_search.full_train_top = 2;
  cc_search.seeds = 2;
  cc_search.train.epochs = 8;
  cc_search.train.test_interval = 4;
  cc_search.train.max_eval_traces = 2;

  std::vector<nn::KernelFlavor> flavors = {nn::KernelFlavor::kScalar};
  if (nn::built_with_avx2_kernels() && nn::cpu_supports_avx2()) {
    flavors.push_back(nn::KernelFlavor::kAvx2);
  }
  const nn::KernelFlavor entry_flavor = nn::kernel_flavor();
  for (const nn::KernelFlavor flavor : flavors) {
    SCOPED_TRACE(nn::kernel_flavor_name(flavor));
    nn::set_kernel_flavor(flavor);
    const StoreScope abr = fx.scope(tiny_config(), 1234);
    EXPECT_EQ(abr.env, "Starlink");
    EXPECT_EQ(abr.config_digest, "94057cee4656a27bddc01abffac69c4f");
    const StoreScope cc = search::store_scope(cc_domain, cc_search, 7);
    EXPECT_EQ(cc.env, "cc-4G");
    EXPECT_EQ(cc.config_digest, "be3ac34433f71ddcb60877923febcca7");
  }
  nn::set_kernel_flavor(entry_flavor);
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
