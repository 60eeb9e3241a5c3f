#include "store/mmap_index.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/strings.h"

namespace nada::store {
namespace {

constexpr char kIndexMagic[8] = {'N', 'S', 'B', 'I', 'D', 'X', '1', '\0'};
constexpr std::uint32_t kIndexVersion = 1;

// Fixed 64-byte header ahead of the entry array.
struct IndexHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t reserved0;
  std::uint64_t n_entries;
  std::uint64_t covered_bytes;
  std::uint64_t entries_hash;
  std::uint64_t scope_hash;
  std::uint64_t reserved1;
  std::uint64_t reserved2;
};
static_assert(sizeof(IndexHeader) == 64, "on-disk header layout");

// Word-wise mix hash over the entry array. Entry sizes are 8-byte
// multiples, so this processes whole u64 words — roughly 4x faster than the
// byte-at-a-time FNV, which matters for the open-in-milliseconds budget
// (validating a 1M-entry sidecar hashes 32 MB).
std::uint64_t hash_words(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ bytes;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = util::mix64(h ^ word);
  }
  std::uint64_t tail = 0;
  if (i < bytes) {
    std::memcpy(&tail, p + i, bytes - i);
    h = util::mix64(h ^ tail);
  }
  return h;
}

bool entry_less(const MmapIndex::Entry& a, const MmapIndex::Entry& b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}

}  // namespace

MmapIndex::~MmapIndex() { close(); }

MmapIndex::MmapIndex(MmapIndex&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      entries_(std::exchange(other.entries_, nullptr)),
      n_entries_(std::exchange(other.n_entries_, 0)),
      covered_bytes_(std::exchange(other.covered_bytes_, 0)) {}

MmapIndex& MmapIndex::operator=(MmapIndex&& other) noexcept {
  if (this != &other) {
    close();
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    entries_ = std::exchange(other.entries_, nullptr);
    n_entries_ = std::exchange(other.n_entries_, 0);
    covered_bytes_ = std::exchange(other.covered_bytes_, 0);
  }
  return *this;
}

void MmapIndex::close() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
  map_ = nullptr;
  map_bytes_ = 0;
  entries_ = nullptr;
  n_entries_ = 0;
  covered_bytes_ = 0;
}

bool MmapIndex::open(const std::string& path, std::uint64_t scope_hash) {
  close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
      static_cast<std::size_t>(st.st_size) < sizeof(IndexHeader)) {
    ::close(fd);
    return false;
  }
  const auto bytes = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (map == MAP_FAILED) return false;
  map_ = map;
  map_bytes_ = bytes;

  IndexHeader header{};
  std::memcpy(&header, map_, sizeof(header));
  const auto* entries =
      reinterpret_cast<const Entry*>(static_cast<const char*>(map_) +
                                     sizeof(IndexHeader));
  // The entry count is bounded by the mapping before it is multiplied: a
  // count with any of its top five bits flipped would otherwise wrap the
  // product back to the true size and pass the size check.
  const bool valid =
      std::memcmp(header.magic, kIndexMagic, sizeof(kIndexMagic)) == 0 &&
      header.version == kIndexVersion && header.scope_hash == scope_hash &&
      header.n_entries <= (map_bytes_ - sizeof(IndexHeader)) / sizeof(Entry) &&
      map_bytes_ == sizeof(IndexHeader) + header.n_entries * sizeof(Entry) &&
      header.entries_hash ==
          hash_words(entries, header.n_entries * sizeof(Entry)) &&
      std::is_sorted(entries, entries + header.n_entries, entry_less);
  if (!valid) {
    close();
    return false;
  }
  entries_ = entries;
  n_entries_ = static_cast<std::size_t>(header.n_entries);
  covered_bytes_ = header.covered_bytes;
  return true;
}

std::optional<MmapIndex::Entry> MmapIndex::find(const Fingerprint& fp) const {
  if (entries_ == nullptr) return std::nullopt;
  Entry probe;
  probe.hi = fp.hi;
  probe.lo = fp.lo;
  const Entry* end = entries_ + n_entries_;
  const Entry* it = std::lower_bound(entries_, end, probe, entry_less);
  if (it == end || it->hi != fp.hi || it->lo != fp.lo) return std::nullopt;
  return *it;
}

void MmapIndex::write(const std::string& path,
                      const std::vector<Entry>& entries,
                      std::uint64_t covered_bytes, std::uint64_t scope_hash) {
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (!entry_less(entries[i - 1], entries[i])) {
      throw std::invalid_argument(
          "MmapIndex::write: entries must be sorted and unique");
    }
  }
  IndexHeader header{};
  std::memcpy(header.magic, kIndexMagic, sizeof(kIndexMagic));
  header.version = kIndexVersion;
  header.n_entries = entries.size();
  header.covered_bytes = covered_bytes;
  header.entries_hash =
      hash_words(entries.data(), entries.size() * sizeof(Entry));
  header.scope_hash = scope_hash;

  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("MmapIndex::write: cannot open " + tmp_path);
    }
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(entries.data()),
              static_cast<std::streamsize>(entries.size() * sizeof(Entry)));
    out.flush();
    if (!out) {
      throw std::runtime_error("MmapIndex::write: write to " + tmp_path +
                               " failed");
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("MmapIndex::write: rename " + tmp_path + " -> " +
                             path + " failed");
  }
}

std::uint64_t MmapIndex::scope_hash(const std::string& env,
                                    const std::string& digest) {
  return util::fnv1a64(env + "\n" + digest, 0x1d9a7uLL);
}

}  // namespace nada::store
