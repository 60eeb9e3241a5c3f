// Record codecs for the candidate store journals.
//
// Two wire formats encode the same store::OutcomeRecord + store::StoreScope
// pair (see docs/STORE_FORMAT.md):
//
//   * binary (".nsb") — the live journal format. A length-prefixed,
//     checksummed frame per record: `u32 body_len | u64 fnv1a64(body) |
//     body`, all little-endian, after an 8-byte file magic. Fixed field
//     order, strings and double vectors length-prefixed, doubles as raw
//     IEEE-754 bit patterns (non-finite values round-trip exactly, unlike
//     JSON). The frame offsets are what the mmap'd fingerprint index
//     (store/mmap_index.h) points at, so a lookup deserializes exactly one
//     frame.
//   * JSONL — one JSON object per newline-terminated line, the export and
//     import format of tools/store_convert. Key order is canonical
//     (sorted), so decode -> re-encode reproduces an exported line byte for
//     byte.
//
// The binary decoder exists in a scope-filtered flavor (mirrors the
// store's foreign-frame skipping); both codecs have a scope-preserving
// "_any" flavor for the converter, which must migrate mixed-scope journals
// losslessly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "store/candidate_store.h"

namespace nada::store {

/// A record paired with the scope its journal entry carried. Converters use
/// this to migrate journals without knowing (or unifying) their scopes.
struct ScopedRecord {
  StoreScope scope;
  OutcomeRecord record;
};

// ---- binary journal framing ------------------------------------------------

/// 8-byte magic opening every binary (.nsb) journal.
inline constexpr std::string_view kBinaryJournalMagic = "NSBJRNL1";
/// Frame header: u32 body length + u64 FNV-1a body checksum, little-endian.
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// A declared body length above this is treated as a corrupt length field
/// (lost frame sync), not a real frame.
inline constexpr std::uint32_t kMaxFrameBodyBytes = 64u << 20;

/// Encodes one record as a complete binary frame (header + body).
[[nodiscard]] std::string encode_record(const OutcomeRecord& record,
                                        const StoreScope& scope);

/// Decodes one complete frame (header + body). nullopt when the frame is
/// torn, fails its checksum, malforms, or carries a different scope.
[[nodiscard]] std::optional<OutcomeRecord> decode_record(
    std::string_view frame, const StoreScope& scope);

/// Scope-preserving decode; nullopt only for torn/corrupt frames.
[[nodiscard]] std::optional<ScopedRecord> decode_record_any(
    std::string_view frame);

/// Result of walking a journal frame by frame.
struct ScanStats {
  /// Offset where intact framing ends. Bytes past this point are a torn
  /// tail.
  std::uint64_t clean_end = 0;
  std::size_t frames = 0;   ///< frames delivered
  bool torn_tail = false;   ///< trailing bytes formed no frame
};

/// Receives each frame's offset and bytes (header + body).
using FrameFn = std::function<void(std::uint64_t, std::string_view)>;

/// Walks `content` — journal bytes AFTER the 8-byte magic — and calls
/// `frame_fn(offset, frame)` for every frame, where `offset` is relative to
/// the start of `content`. Checks framing only: a frame whose length is
/// sane and which fits is delivered, and its checksum is checked where it
/// is decoded (decode_record and decode_record_any), so a flipped body byte
/// costs that frame alone. An impossible length or a trailing partial frame
/// ends the scan as a torn tail.
ScanStats scan_binary_journal(std::string_view content,
                              const FrameFn& frame_fn);

/// The one reader of a journal file (the store's open and records(), the
/// shard merge and the converter): reads the binary journal at `path` from
/// byte `from` (at least the magic's 8 bytes) to its end and walks its
/// frames as scan_binary_journal does, handing `frame_fn` offsets from the
/// start of the file; the returned clean_end counts from there too, and is
/// the file's size when `from` lies past its end. A file shorter than the
/// magic whose bytes begin it (a crash while the journal was created) holds
/// no frame: clean_end is 0, and any bytes it has are a torn tail. nullopt
/// when the file does not exist. Throws std::runtime_error naming the path
/// and tools/store_convert when the magic is missing (a legacy JSONL
/// journal, say), and on a read error.
std::optional<ScanStats> scan_journal_file(const std::string& path,
                                           std::uint64_t from,
                                           const FrameFn& frame_fn);

// ---- JSONL export codec (CandidateStore::encode_line and the converter) ---

[[nodiscard]] std::string encode_jsonl_line(const OutcomeRecord& record,
                                            const StoreScope& scope);
/// nullopt when the line is torn or malformed.
[[nodiscard]] std::optional<ScopedRecord> decode_jsonl_line_any(
    const std::string& line);

}  // namespace nada::store
