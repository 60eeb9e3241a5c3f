#include "store/candidate_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "obs/scoped_timer.h"
#include "store/record_codec.h"
#include "util/fs.h"

namespace nada::store {
namespace {

constexpr std::uint64_t kMagicBytes = 8;

bool entry_less(const MmapIndex::Entry& a, const MmapIndex::Entry& b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}

/// A frame read starts with this many bytes: enough for the header and
/// the body of a typical record (a warm ABR state frame averages ~626
/// bytes), so most hits take one pread.
constexpr std::size_t kFirstReadBytes = 1024;

void resize_journal(const std::string& path, std::uint64_t bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, bytes, ec);
  if (ec) {
    throw std::runtime_error("CandidateStore: cannot truncate torn tail of " +
                             path + ": " + ec.message());
  }
}

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kChecked: return "checked";
    case Stage::kProbed: return "probed";
    case Stage::kTrained: return "trained";
  }
  return "?";
}

CandidateStore::CandidateStore(std::string path, StoreScope scope)
    : path_(std::move(path)), scope_(std::move(scope)) {
  if (scope_.env.empty() || scope_.config_digest.empty()) {
    throw std::invalid_argument("CandidateStore: empty scope");
  }
  util::ensure_directories(util::parent_directory(path_));
  const bool scanned = load();
  open_append_handle();
  if (scanned) {
    // The open indexed frames the sidecar did not cover; persist so the
    // next open is O(index) again. Loud: an unwritable sidecar here means
    // every future open pays a scan.
    persist_index_locked();
  }
}

CandidateStore::~CandidateStore() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (index_dirty_) {
    // Best-effort: the sidecar is a cache, and a failed write here only
    // costs the next open a tail scan.
    try {
      std::lock_guard lock(mutex_);
      persist_index_locked();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

std::uint64_t CandidateStore::scope_hash() const {
  return MmapIndex::scope_hash(scope_.env, scope_.config_digest);
}

void CandidateStore::open_append_handle() {
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("CandidateStore: cannot open " + path_ +
                             " for append");
  }
  if (append_offset_ < kMagicBytes) {
    // Brand-new journal (or one whose torn creation was truncated away):
    // the magic goes down before any record can.
    out_.write(kBinaryJournalMagic.data(),
               static_cast<std::streamsize>(kBinaryJournalMagic.size()));
    out_.flush();
    if (!out_) {
      throw std::runtime_error("CandidateStore: cannot initialize " + path_);
    }
    append_offset_ = kMagicBytes;
  }
  read_fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (read_fd_ < 0) {
    throw std::runtime_error("CandidateStore: cannot open " + path_ +
                             " for reading");
  }
}

bool CandidateStore::load() {
  if (!util::file_exists(path_)) return false;  // open_append_handle creates it
  if (base_.open(index_path(), scope_hash()) &&
      base_.covered_bytes() < kMagicBytes) {
    base_.close();
  }
  if (!index_from(base_.is_open() ? base_.covered_bytes() : kMagicBytes)) {
    // No intact frame starts where the sidecar's entries end: the journal
    // was replaced or cut under them. Index it from the magic.
    base_.close();
    index_from(kMagicBytes);
  }
  return !base_.is_open() || base_.covered_bytes() != append_offset_;
}

bool CandidateStore::index_from(std::uint64_t from) {
  // The sidecar's entries hold only if an intact frame (under any scope)
  // starts at `from`, or the journal ends there.
  bool trusted = !base_.is_open();
  distinct_ = base_.size();
  const ScanStats stats =
      scan_journal_file(
          path_, from,
          [&](std::uint64_t offset, std::string_view frame) {
            auto scoped = decode_record_any(frame);
            if (offset == from) trusted = trusted || scoped.has_value();
            if (!trusted) return;
            if (!scoped.has_value() || !(scoped->scope == scope_)) {
              ++line_errors_;  // checksum mismatch, malformed or foreign
              return;
            }
            ++decoded_frames_;
            const OutcomeRecord& record = scoped->record;
            const auto current = entry_locked(record.fingerprint);
            if (!current.has_value()) ++distinct_;
            if (!current.has_value() || current->stage < record.stage) {
              delta_[record.fingerprint] = DeltaEntry{offset, record.stage};
            }
          })
          .value_or(ScanStats{});
  if (!trusted && (stats.clean_end != from || stats.torn_tail)) return false;
  if (stats.torn_tail) {
    ++line_errors_;
    resize_journal(path_, stats.clean_end);
  }
  append_offset_ = stats.clean_end;
  return true;
}

void CandidateStore::persist_index_locked() {
  std::vector<MmapIndex::Entry> fresh;
  fresh.reserve(delta_.size());
  for (const auto& [fp, d] : delta_) {
    MmapIndex::Entry entry;
    entry.hi = fp.hi;
    entry.lo = fp.lo;
    entry.offset = d.offset;
    entry.stage = static_cast<std::uint32_t>(d.stage);
    fresh.push_back(entry);
  }
  std::sort(fresh.begin(), fresh.end(), entry_less);

  // Merge the sorted delta over the sorted base; delta wins on ties.
  std::vector<MmapIndex::Entry> merged;
  merged.reserve(base_.size() + fresh.size());
  const MmapIndex::Entry* b = base_.entries();
  const MmapIndex::Entry* b_end = b + base_.size();
  std::size_t f = 0;
  while (b != b_end || f < fresh.size()) {
    if (b == b_end) {
      merged.push_back(fresh[f++]);
    } else if (f == fresh.size()) {
      merged.push_back(*b++);
    } else if (entry_less(*b, fresh[f])) {
      merged.push_back(*b++);
    } else if (entry_less(fresh[f], *b)) {
      merged.push_back(fresh[f++]);
    } else {
      merged.push_back(fresh[f++]);
      ++b;
    }
  }
  MmapIndex::write(index_path(), merged, append_offset_, scope_hash());
  if (!base_.open(index_path(), scope_hash())) {
    throw std::runtime_error("CandidateStore: cannot map index " +
                             index_path());
  }
  delta_.clear();
  index_dirty_ = false;
}

void CandidateStore::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_.store(metrics, std::memory_order_release);
}

std::optional<CandidateStore::DeltaEntry> CandidateStore::entry_locked(
    const Fingerprint& fp) const {
  const auto it = delta_.find(fp);
  if (it != delta_.end()) return it->second;
  return base_entry(fp);
}

std::optional<CandidateStore::DeltaEntry> CandidateStore::base_entry(
    const Fingerprint& fp) const {
  if (const auto entry = base_.find(fp)) {
    return DeltaEntry{entry->offset, static_cast<Stage>(entry->stage)};
  }
  return std::nullopt;
}

std::optional<OutcomeRecord> CandidateStore::read_frame(
    const Fingerprint& fp, std::uint64_t offset, std::uint64_t end) const {
  // The calling thread's frame bytes, reused, so a hit reads into memory the
  // thread already holds.
  thread_local std::vector<char> buffer(kFirstReadBytes);
  const ssize_t first =
      util::read_at(read_fd_, buffer.data(), kFirstReadBytes, offset);
  if (first < static_cast<ssize_t>(kFrameHeaderBytes)) {
    ++line_errors_;
    return std::nullopt;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(buffer[i]))
           << (8 * i);
  }
  if (len > kMaxFrameBodyBytes || offset + kFrameHeaderBytes + len > end) {
    ++line_errors_;
    return std::nullopt;
  }
  const std::size_t frame_bytes = kFrameHeaderBytes + len;
  const auto have = static_cast<std::size_t>(first);
  if (frame_bytes > have) {
    // A long frame: read the rest behind what the first read brought.
    if (buffer.size() < frame_bytes) buffer.resize(frame_bytes);
    const std::size_t rest = frame_bytes - have;
    if (util::read_at(read_fd_, buffer.data() + have, rest, offset + have) !=
        static_cast<ssize_t>(rest)) {
      ++line_errors_;
      return std::nullopt;
    }
  }
  auto record =
      decode_record(std::string_view(buffer.data(), frame_bytes), scope_);
  if (!record.has_value() || !(record->fingerprint == fp)) {
    // The index pointed here but the bytes no longer decode (flipped bit,
    // partial overwrite) or hold another record (a journal replaced under
    // its sidecar): surface as a miss + recovery count, never as a crash
    // or another candidate's results — the funnel recomputes instead.
    ++line_errors_;
    return std::nullopt;
  }
  ++decoded_frames_;
  return record;
}

std::optional<OutcomeRecord> CandidateStore::lookup(
    const Fingerprint& fp) const {
  obs::MetricsRegistry* metrics = metrics_.load(std::memory_order_acquire);
  obs::ScopedTimer timer(obs::maybe_histogram(metrics, "store.lookup.seconds"));
  std::optional<DeltaEntry> entry;
  std::uint64_t end = 0;
  {
    // The mutex covers the delta alone. The sidecar's entries change only
    // in the constructor and the destructor, so a delta miss searches them
    // outside it; and the frame an entry points at is read outside it too:
    // the journal is append-only, and put() flushes a frame before it
    // publishes the frame's entry.
    std::lock_guard lock(mutex_);
    if (const auto it = delta_.find(fp); it != delta_.end()) {
      entry = it->second;
    }
    end = append_offset_;
  }
  if (!entry.has_value()) entry = base_entry(fp);
  std::optional<OutcomeRecord> result;
  if (entry.has_value()) result = read_frame(fp, entry->offset, end);
  if (metrics != nullptr) {
    metrics->counter("store.lookups").add();
    if (result.has_value()) metrics->counter("store.lookup_hits").add();
  }
  return result;
}

bool CandidateStore::put(const OutcomeRecord& record) {
  if (record.fingerprint.is_zero()) {
    throw std::invalid_argument("CandidateStore::put: zero fingerprint");
  }
  obs::MetricsRegistry* metrics = metrics_.load(std::memory_order_acquire);
  obs::ScopedTimer timer(obs::maybe_histogram(metrics, "store.append.seconds"));
  if (metrics != nullptr) metrics->counter("store.appends").add();
  std::lock_guard lock(mutex_);
  const auto existing = entry_locked(record.fingerprint);
  if (existing.has_value() && existing->stage >= record.stage) return false;
  if (metrics != nullptr) metrics->counter("store.appends_accepted").add();
  const std::string frame = encode_record(record, scope_);
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("CandidateStore: append to " + path_ +
                             " failed (disk full or I/O error)");
  }
  delta_[record.fingerprint] = DeltaEntry{append_offset_, record.stage};
  if (!existing.has_value()) ++distinct_;
  append_offset_ += frame.size();
  index_dirty_ = true;
  return true;
}

std::size_t CandidateStore::size() const {
  std::lock_guard lock(mutex_);
  return distinct_;
}

std::vector<OutcomeRecord> CandidateStore::records() const {
  std::lock_guard lock(mutex_);
  std::vector<OutcomeRecord> out;
  std::unordered_map<Fingerprint, std::size_t, FingerprintHash> by_key;
  scan_journal_file(
      path_, kMagicBytes, [&](std::uint64_t, std::string_view frame) {
        auto record = decode_record(frame, scope_);
        if (!record.has_value()) return;  // snapshot: no error mutation
        ++decoded_frames_;
        const auto it = by_key.find(record->fingerprint);
        if (it == by_key.end()) {
          by_key.emplace(record->fingerprint, out.size());
          out.push_back(std::move(*record));
        } else if (out[it->second].stage < record->stage) {
          out[it->second] = std::move(*record);
        }
      });
  return out;
}

std::string CandidateStore::encode_line(const OutcomeRecord& record,
                                        const StoreScope& scope) {
  return encode_jsonl_line(record, scope);
}

std::string default_store_path(const StoreScope& scope) {
  const char* dir = std::getenv("NADA_STORE_DIR");
  std::string base = (dir != nullptr && *dir != '\0') ? dir : "nada_store";
  return base + "/" + scope.env + "-" + scope.config_digest.substr(0, 16) +
         ".nsb";
}

}  // namespace nada::store
