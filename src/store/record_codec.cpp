#include "store/record_codec.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "util/fs.h"
#include "util/json.h"
#include "util/strings.h"

namespace nada::store {
namespace {

// ---- little-endian byte IO -------------------------------------------------

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void append_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  append_u64(out, bits);
}

void append_str(std::string& out, const std::string& s) {
  append_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void append_doubles(std::string& out, const std::vector<double>& v) {
  append_u32(out, static_cast<std::uint32_t>(v.size()));
  for (double d : v) append_f64(out, d);
}

/// Bounds-checked cursor over a frame body. Every read method returns
/// false (instead of throwing) on overrun — a corrupt frame must decode to
/// nullopt, not an exception, on the store's recovery paths.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, 8);
    return true;
  }
  bool str(std::string& v) {
    std::uint32_t len = 0;
    if (!u32(len) || pos_ + len > data_.size()) return false;
    v.assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }
  bool doubles(std::vector<double>& v) {
    std::uint32_t count = 0;
    if (!u32(count)) return false;
    if (pos_ + static_cast<std::size_t>(count) * 8 > data_.size()) {
      return false;
    }
    v.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!f64(v[i])) return false;
    }
    return true;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Closes a descriptor on scope exit.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

/// The `n` bytes of `path` at `offset`; throws when they cannot be read.
std::string read_range(int fd, std::uint64_t offset, std::uint64_t n,
                       const std::string& path) {
  std::string out(static_cast<std::size_t>(n), '\0');
  if (util::read_at(fd, out.data(), out.size(), offset) !=
      static_cast<ssize_t>(out.size())) {
    throw std::runtime_error("scan_journal_file: cannot read " + path);
  }
  return out;
}

// Record flags (body byte 17). Unknown bits reject the frame: a flipped
// flag bit must read as corruption, not as silently-dropped data.
constexpr std::uint8_t kFlagHasArch = 1u << 0;
constexpr std::uint8_t kFlagCompiled = 1u << 1;
constexpr std::uint8_t kFlagNormalized = 1u << 2;
constexpr std::uint8_t kFlagEarlyProbed = 1u << 3;
constexpr std::uint8_t kFlagFullyTrained = 1u << 4;
constexpr std::uint8_t kKnownFlags =
    kFlagHasArch | kFlagCompiled | kFlagNormalized | kFlagEarlyProbed |
    kFlagFullyTrained;

constexpr std::uint8_t kNumTemporalUnits = 4;  // kConv1D..kDense
constexpr std::uint8_t kNumActivations = 6;    // kLinear..kElu

std::string encode_body(const OutcomeRecord& record, const StoreScope& scope) {
  std::string body;
  body.reserve(128 + record.source.size() +
               8 * (record.early_rewards.size() + record.curve_epochs.size() +
                    record.median_curve.size()));
  append_u64(body, record.fingerprint.hi);
  append_u64(body, record.fingerprint.lo);
  body.push_back(static_cast<char>(static_cast<int>(record.stage)));
  std::uint8_t flags = 0;
  if (record.arch.has_value()) flags |= kFlagHasArch;
  if (record.compiled) flags |= kFlagCompiled;
  if (record.normalized) flags |= kFlagNormalized;
  if (record.early_probed) flags |= kFlagEarlyProbed;
  if (record.fully_trained) flags |= kFlagFullyTrained;
  body.push_back(static_cast<char>(flags));
  append_str(body, scope.env);
  append_str(body, scope.config_digest);
  append_str(body, record.id);
  append_str(body, record.source);
  append_str(body, record.compile_error);
  append_str(body, record.normalization_error);
  if (record.arch.has_value()) {
    const nn::ArchSpec& arch = *record.arch;
    body.push_back(static_cast<char>(static_cast<int>(arch.temporal)));
    body.push_back(static_cast<char>(static_cast<int>(arch.activation)));
    body.push_back(static_cast<char>(arch.shared_trunk ? 1 : 0));
    append_u32(body, static_cast<std::uint32_t>(arch.conv_filters));
    append_u32(body, static_cast<std::uint32_t>(arch.conv_kernel));
    append_u32(body, static_cast<std::uint32_t>(arch.rnn_hidden));
    append_u32(body, static_cast<std::uint32_t>(arch.scalar_hidden));
    append_u32(body, static_cast<std::uint32_t>(arch.merge_hidden));
    append_u32(body, static_cast<std::uint32_t>(arch.merge_layers));
  }
  append_f64(body, record.test_score);
  append_f64(body, record.emulation_score);
  append_doubles(body, record.early_rewards);
  append_doubles(body, record.curve_epochs);
  append_doubles(body, record.median_curve);
  return body;
}

std::optional<ScopedRecord> decode_body(std::string_view body) {
  Reader in(body);
  ScopedRecord out;
  OutcomeRecord& record = out.record;
  std::uint8_t stage = 0, flags = 0;
  if (!in.u64(record.fingerprint.hi) || !in.u64(record.fingerprint.lo) ||
      !in.u8(stage) || !in.u8(flags)) {
    return std::nullopt;
  }
  if (stage > 2 || (flags & ~kKnownFlags) != 0) return std::nullopt;
  record.stage = static_cast<Stage>(stage);
  record.compiled = (flags & kFlagCompiled) != 0;
  record.normalized = (flags & kFlagNormalized) != 0;
  record.early_probed = (flags & kFlagEarlyProbed) != 0;
  record.fully_trained = (flags & kFlagFullyTrained) != 0;
  if (!in.str(out.scope.env) || !in.str(out.scope.config_digest) ||
      !in.str(record.id) || !in.str(record.source) ||
      !in.str(record.compile_error) || !in.str(record.normalization_error)) {
    return std::nullopt;
  }
  if ((flags & kFlagHasArch) != 0) {
    std::uint8_t temporal = 0, activation = 0, shared = 0;
    std::uint32_t conv_filters = 0, conv_kernel = 0, rnn_hidden = 0;
    std::uint32_t scalar_hidden = 0, merge_hidden = 0, merge_layers = 0;
    if (!in.u8(temporal) || !in.u8(activation) || !in.u8(shared) ||
        !in.u32(conv_filters) || !in.u32(conv_kernel) || !in.u32(rnn_hidden) ||
        !in.u32(scalar_hidden) || !in.u32(merge_hidden) ||
        !in.u32(merge_layers)) {
      return std::nullopt;
    }
    if (temporal >= kNumTemporalUnits || activation >= kNumActivations ||
        shared > 1) {
      return std::nullopt;
    }
    nn::ArchSpec arch;
    arch.temporal = static_cast<nn::TemporalUnit>(temporal);
    arch.activation = static_cast<nn::Activation>(activation);
    arch.shared_trunk = shared != 0;
    arch.conv_filters = conv_filters;
    arch.conv_kernel = conv_kernel;
    arch.rnn_hidden = rnn_hidden;
    arch.scalar_hidden = scalar_hidden;
    arch.merge_hidden = merge_hidden;
    arch.merge_layers = merge_layers;
    record.arch = arch;
  }
  if (!in.f64(record.test_score) || !in.f64(record.emulation_score) ||
      !in.doubles(record.early_rewards) || !in.doubles(record.curve_epochs) ||
      !in.doubles(record.median_curve)) {
    return std::nullopt;
  }
  // Trailing bytes mean the length field and the body disagree — corrupt.
  if (!in.exhausted()) return std::nullopt;
  return out;
}

/// Validates frame header + checksum and returns the body view.
std::optional<std::string_view> frame_body(std::string_view frame) {
  if (frame.size() < kFrameHeaderBytes) return std::nullopt;
  Reader header(frame.substr(0, kFrameHeaderBytes));
  std::uint32_t len = 0;
  std::uint64_t checksum = 0;
  header.u32(len);
  header.u64(checksum);
  if (len > kMaxFrameBodyBytes ||
      frame.size() != kFrameHeaderBytes + static_cast<std::size_t>(len)) {
    return std::nullopt;
  }
  const std::string_view body = frame.substr(kFrameHeaderBytes);
  if (util::fnv1a64(body) != checksum) return std::nullopt;
  return body;
}

// ---- JSONL helpers (moved from candidate_store.cpp) ------------------------

std::optional<nn::TemporalUnit> temporal_from_name(const std::string& name) {
  for (const auto u : {nn::TemporalUnit::kConv1D, nn::TemporalUnit::kRnn,
                       nn::TemporalUnit::kLstm, nn::TemporalUnit::kDense}) {
    if (name == nn::temporal_unit_name(u)) return u;
  }
  return std::nullopt;
}

std::optional<nn::Activation> activation_from_name(const std::string& name) {
  for (const auto a :
       {nn::Activation::kLinear, nn::Activation::kRelu,
        nn::Activation::kLeakyRelu, nn::Activation::kTanh,
        nn::Activation::kSigmoid, nn::Activation::kElu}) {
    if (name == nn::activation_name(a)) return a;
  }
  return std::nullopt;
}

util::JsonValue encode_arch(const nn::ArchSpec& spec) {
  util::JsonValue out = util::JsonValue::object();
  out.set("temporal",
          util::JsonValue::string(nn::temporal_unit_name(spec.temporal)));
  out.set("conv_filters",
          util::JsonValue::number(static_cast<double>(spec.conv_filters)));
  out.set("conv_kernel",
          util::JsonValue::number(static_cast<double>(spec.conv_kernel)));
  out.set("rnn_hidden",
          util::JsonValue::number(static_cast<double>(spec.rnn_hidden)));
  out.set("scalar_hidden",
          util::JsonValue::number(static_cast<double>(spec.scalar_hidden)));
  out.set("merge_hidden",
          util::JsonValue::number(static_cast<double>(spec.merge_hidden)));
  out.set("merge_layers",
          util::JsonValue::number(static_cast<double>(spec.merge_layers)));
  out.set("activation",
          util::JsonValue::string(nn::activation_name(spec.activation)));
  out.set("shared_trunk", util::JsonValue::boolean(spec.shared_trunk));
  return out;
}

std::optional<nn::ArchSpec> decode_arch(const util::JsonValue& value) {
  if (value.type() != util::JsonValue::Type::kObject) return std::nullopt;
  nn::ArchSpec spec;
  const auto temporal = temporal_from_name(value.get("temporal").as_string());
  const auto activation =
      activation_from_name(value.get("activation").as_string());
  if (!temporal.has_value() || !activation.has_value()) return std::nullopt;
  spec.temporal = *temporal;
  spec.activation = *activation;
  const auto as_size = [&value](const char* key) {
    return static_cast<std::size_t>(value.get(key).as_number());
  };
  spec.conv_filters = as_size("conv_filters");
  spec.conv_kernel = as_size("conv_kernel");
  spec.rnn_hidden = as_size("rnn_hidden");
  spec.scalar_hidden = as_size("scalar_hidden");
  spec.merge_hidden = as_size("merge_hidden");
  spec.merge_layers = as_size("merge_layers");
  spec.shared_trunk = value.get("shared_trunk").as_bool();
  return spec;
}

}  // namespace

// ---- binary codec ----------------------------------------------------------

std::string encode_record(const OutcomeRecord& record,
                          const StoreScope& scope) {
  const std::string body = encode_body(record, scope);
  if (body.size() > kMaxFrameBodyBytes) {
    throw std::invalid_argument("encode_record: record exceeds the " +
                                std::to_string(kMaxFrameBodyBytes) +
                                "-byte frame limit");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + body.size());
  append_u32(frame, static_cast<std::uint32_t>(body.size()));
  append_u64(frame, util::fnv1a64(body));
  frame.append(body);
  return frame;
}

std::optional<OutcomeRecord> decode_record(std::string_view frame,
                                           const StoreScope& scope) {
  auto scoped = decode_record_any(frame);
  if (!scoped.has_value() || !(scoped->scope == scope)) return std::nullopt;
  return std::move(scoped->record);
}

std::optional<ScopedRecord> decode_record_any(std::string_view frame) {
  const auto body = frame_body(frame);
  if (!body.has_value()) return std::nullopt;
  auto scoped = decode_body(*body);
  if (scoped.has_value() && scoped->record.fingerprint.is_zero()) {
    return std::nullopt;  // a record that could never have been put()
  }
  return scoped;
}

ScanStats scan_binary_journal(std::string_view content,
                              const FrameFn& frame_fn) {
  ScanStats stats;
  std::uint64_t offset = 0;
  while (offset < content.size()) {
    const std::string_view rest = content.substr(offset);
    if (rest.size() < kFrameHeaderBytes) {
      stats.torn_tail = true;
      break;
    }
    std::uint32_t len = 0;
    Reader(rest).u32(len);
    if (len > kMaxFrameBodyBytes) {
      // A corrupt length field loses frame sync: everything from here on
      // is undecodable, exactly like a torn tail.
      stats.torn_tail = true;
      break;
    }
    const std::uint64_t frame_bytes =
        kFrameHeaderBytes + static_cast<std::uint64_t>(len);
    if (rest.size() < frame_bytes) {
      stats.torn_tail = true;  // partial final append
      break;
    }
    ++stats.frames;
    if (frame_fn) frame_fn(offset, rest.substr(0, frame_bytes));
    offset += frame_bytes;
    stats.clean_end = offset;
  }
  return stats;
}

std::optional<ScanStats> scan_journal_file(const std::string& path,
                                           std::uint64_t from,
                                           const FrameFn& frame_fn) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    if (err == ENOENT || err == ENOTDIR) return std::nullopt;
    throw std::runtime_error("scan_journal_file: cannot open " + path + ": " +
                             std::generic_category().message(err));
  }
  const FdCloser closer(fd);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    throw std::runtime_error("scan_journal_file: cannot stat " + path);
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  const std::uint64_t magic_bytes = kBinaryJournalMagic.size();
  const std::string head =
      read_range(fd, 0, std::min(size, magic_bytes), path);
  if (!kBinaryJournalMagic.starts_with(head)) {
    // Refused before anything opens it for writing, so the file stays
    // byte-identical for the converter.
    throw std::runtime_error(
        path + " is not a binary store journal (bad magic); a legacy JSONL "
               "journal must be migrated: use tools/store_convert");
  }
  ScanStats stats;
  if (head.size() < magic_bytes) {
    // A crash while the journal was created: nothing durable existed yet.
    stats.torn_tail = !head.empty();
    return stats;
  }
  from = std::clamp(from, magic_bytes, size);
  const std::string body = read_range(fd, from, size - from, path);
  stats = scan_binary_journal(
      body, [&](std::uint64_t offset, std::string_view frame) {
        if (frame_fn) frame_fn(from + offset, frame);
      });
  stats.clean_end += from;
  return stats;
}

// ---- JSONL codec -----------------------------------------------------------

std::string encode_jsonl_line(const OutcomeRecord& record,
                              const StoreScope& scope) {
  util::JsonValue out = util::JsonValue::object();
  out.set("fp", util::JsonValue::string(record.fingerprint.hex()));
  out.set("env", util::JsonValue::string(scope.env));
  out.set("digest", util::JsonValue::string(scope.config_digest));
  out.set("stage", util::JsonValue::number(
                       static_cast<double>(static_cast<int>(record.stage))));
  out.set("id", util::JsonValue::string(record.id));
  out.set("source", util::JsonValue::string(record.source));
  if (record.arch.has_value()) out.set("arch", encode_arch(*record.arch));
  out.set("compiled", util::JsonValue::boolean(record.compiled));
  out.set("compile_error", util::JsonValue::string(record.compile_error));
  out.set("normalized", util::JsonValue::boolean(record.normalized));
  out.set("normalization_error",
          util::JsonValue::string(record.normalization_error));
  out.set("early_probed", util::JsonValue::boolean(record.early_probed));
  out.set("early_rewards", util::json_doubles(record.early_rewards));
  out.set("fully_trained", util::JsonValue::boolean(record.fully_trained));
  out.set("test_score", util::JsonValue::number(record.test_score));
  out.set("emulation_score", util::JsonValue::number(record.emulation_score));
  out.set("curve_epochs", util::json_doubles(record.curve_epochs));
  out.set("median_curve", util::json_doubles(record.median_curve));
  return out.dump();
}

std::optional<ScopedRecord> decode_jsonl_line_any(const std::string& line) {
  util::JsonValue value;
  try {
    value = util::JsonValue::parse(line);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  if (value.type() != util::JsonValue::Type::kObject) return std::nullopt;
  ScopedRecord out;
  out.scope.env = value.get("env").as_string();
  out.scope.config_digest = value.get("digest").as_string();
  if (out.scope.env.empty() || out.scope.config_digest.empty()) {
    return std::nullopt;
  }
  const auto fp = Fingerprint::from_hex(value.get("fp").as_string());
  if (!fp.has_value()) return std::nullopt;
  const double stage_raw = value.get("stage").as_number(-1.0);
  if (stage_raw < 0.0 || stage_raw > 2.0) return std::nullopt;

  OutcomeRecord& record = out.record;
  record.fingerprint = *fp;
  record.stage = static_cast<Stage>(static_cast<int>(stage_raw));
  record.id = value.get("id").as_string();
  record.source = value.get("source").as_string();
  if (value.has("arch")) {
    record.arch = decode_arch(value.get("arch"));
    if (!record.arch.has_value()) return std::nullopt;
  }
  record.compiled = value.get("compiled").as_bool();
  record.compile_error = value.get("compile_error").as_string();
  record.normalized = value.get("normalized").as_bool();
  record.normalization_error = value.get("normalization_error").as_string();
  record.early_probed = value.get("early_probed").as_bool();
  record.early_rewards = util::json_to_doubles(value.get("early_rewards"));
  record.fully_trained = value.get("fully_trained").as_bool();
  record.test_score = value.get("test_score").as_number(-1e9);
  record.emulation_score = value.get("emulation_score").as_number();
  record.curve_epochs = util::json_to_doubles(value.get("curve_epochs"));
  record.median_curve = util::json_to_doubles(value.get("median_curve"));
  return out;
}

}  // namespace nada::store
