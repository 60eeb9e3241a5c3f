#include "svc/lease_log.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/status.h"
#include "util/fs.h"
#include "util/strings.h"

namespace nada::svc {

std::string hex_u64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

std::uint64_t parse_hex_u64(const std::string& text) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, 16);
  if (ec != std::errc{} || ptr != last || text.empty() || text.size() > 16) {
    throw std::runtime_error("parse_hex_u64: malformed hex '" + text + "'");
  }
  return value;
}

namespace {

util::JsonValue base_line(const std::string& event) {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("event", util::JsonValue::string(event));
  doc.set("ts_unix", util::JsonValue::number(obs::unix_now()));
  return doc;
}

/// A numeric field as an unsigned integer. Accepts only integral values in
/// [min, 2^53), where a double holds every integer exactly; anything else
/// (missing, non-numeric, fractional, negative, huge) throws, and recover()
/// counts the line as skipped instead of casting it into a bogus lease.
std::uint64_t decode_integer(const util::JsonValue& doc, const char* key,
                             std::uint64_t min) {
  constexpr double kLimit = 9007199254740992.0;  // 2^53
  const double value = doc.get(key).as_number(std::nan(""));
  if (!(value >= static_cast<double>(min) && value < kLimit) ||
      value != std::floor(value)) {
    throw std::runtime_error(std::string("lease log: bad \"") + key + "\"");
  }
  return static_cast<std::uint64_t>(value);
}

std::uint64_t decode_lease_id(const util::JsonValue& doc) {
  return decode_integer(doc, "lease", 1);
}

/// The fields a grant line carries (and each child of a split line).
void encode_lease(util::JsonValue& doc, const Lease& lease) {
  doc.set("lease", util::JsonValue::number(static_cast<double>(lease.id)));
  doc.set("lo", util::JsonValue::string(hex_u64(lease.range.lo)));
  doc.set("hi", util::JsonValue::string(hex_u64(lease.range.hi)));
  doc.set("journal", util::JsonValue::string(lease.journal_path));
  doc.set("status", util::JsonValue::string(lease.status_path));
  doc.set("attempt",
          util::JsonValue::number(static_cast<double>(lease.attempt)));
  doc.set("parent",
          util::JsonValue::number(static_cast<double>(lease.parent)));
}

/// Decodes encode_lease's fields; throws on malformed fields (the caller
/// treats the line as torn).
Lease decode_lease(const util::JsonValue& doc) {
  Lease lease;
  lease.id = decode_lease_id(doc);
  lease.range.lo = parse_hex_u64(doc.get("lo").as_string());
  lease.range.hi = parse_hex_u64(doc.get("hi").as_string());
  lease.journal_path = doc.get("journal").as_string();
  lease.status_path = doc.get("status").as_string();
  lease.attempt = decode_integer(doc, "attempt", 0);
  lease.parent = decode_integer(doc, "parent", 0);
  return lease;
}

}  // namespace

LeaseLog::LeaseLog(std::string path) : path_(std::move(path)) {
  const std::string parent = util::parent_directory(path_);
  if (!parent.empty()) util::ensure_directories(parent);
  // Newline-terminate a torn tail (supervisor killed mid-append) so the
  // next event starts on its own line; the fragment itself stays in the
  // file and recovery skips it — same policy as the candidate store.
  const auto existing = util::read_file_if_exists(path_);
  const bool torn =
      existing.has_value() && !existing->empty() && existing->back() != '\n';
  out_.open(path_, std::ios::app);
  if (!out_.is_open()) {
    throw std::runtime_error("LeaseLog: cannot open " + path_);
  }
  if (torn) {
    out_ << '\n';
    out_.flush();
  }
}

void LeaseLog::append(util::JsonValue line) {
  out_ << line.dump() << '\n';
  out_.flush();
  if (!out_) {
    throw std::runtime_error("LeaseLog: append to " + path_ + " failed");
  }
  ++lines_;
}

void LeaseLog::grant(const Lease& lease) {
  util::JsonValue doc = base_line("grant");
  encode_lease(doc, lease);
  append(std::move(doc));
}

void LeaseLog::split(std::uint64_t parent_id, const Lease& left,
                     const Lease& right) {
  util::JsonValue doc = base_line("split");
  doc.set("lease", util::JsonValue::number(static_cast<double>(parent_id)));
  util::JsonValue left_doc = util::JsonValue::object();
  util::JsonValue right_doc = util::JsonValue::object();
  encode_lease(left_doc, left);
  encode_lease(right_doc, right);
  doc.set("left", std::move(left_doc));
  doc.set("right", std::move(right_doc));
  append(std::move(doc));
}

void LeaseLog::complete(std::uint64_t lease_id) {
  util::JsonValue doc = base_line("complete");
  doc.set("lease", util::JsonValue::number(static_cast<double>(lease_id)));
  append(std::move(doc));
}

void LeaseLog::revoke(std::uint64_t lease_id, const std::string& reason) {
  util::JsonValue doc = base_line("revoke");
  doc.set("lease", util::JsonValue::number(static_cast<double>(lease_id)));
  doc.set("reason", util::JsonValue::string(reason));
  append(std::move(doc));
}

void LeaseLog::note(
    const std::string& event, std::uint64_t lease_id,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  util::JsonValue doc = base_line(event);
  if (lease_id != 0) {
    doc.set("lease", util::JsonValue::number(static_cast<double>(lease_id)));
  }
  for (const auto& [key, value] : fields) {
    doc.set(key, util::JsonValue::string(value));
  }
  append(std::move(doc));
}

LeaseLog::Recovered LeaseLog::recover(const std::string& path) {
  Recovered state;
  const auto content = util::read_file_if_exists(path);
  if (!content.has_value()) return state;
  for (const auto& line : util::split(*content, '\n')) {
    if (util::trim(line).empty()) continue;
    util::JsonValue doc;
    try {
      doc = util::JsonValue::parse(line);
    } catch (const std::exception&) {
      ++state.skipped_lines;  // torn tail or foreign bytes
      continue;
    }
    const std::string& event = doc.get("event").as_string();
    try {
      if (event == "grant") {
        const Lease lease = decode_lease(doc);
        state.max_lease_id = std::max(state.max_lease_id, lease.id);
        state.outstanding[lease.id] = lease;
        state.revoked.erase(lease.id);
      } else if (event == "split") {
        // The parent's range now belongs to its two children: the parent
        // is resolved, and each child is owed a run until its own
        // grant/complete/revoke lines say otherwise — even when the
        // supervisor died before granting it.
        const auto parent = decode_lease_id(doc);
        const Lease left = decode_lease(doc.get("left"));
        const Lease right = decode_lease(doc.get("right"));
        state.revoked.erase(parent);
        state.outstanding.erase(parent);
        for (const Lease& child : {left, right}) {
          state.max_lease_id = std::max(state.max_lease_id, child.id);
          state.outstanding[child.id] = child;
        }
      } else if (event == "complete") {
        const auto id = decode_lease_id(doc);
        const auto it = state.outstanding.find(id);
        if (it != state.outstanding.end()) {
          state.completed_journals.push_back(it->second.journal_path);
          state.outstanding.erase(it);
        }
        state.completed.insert(id);
      } else if (event == "revoke") {
        const auto id = decode_lease_id(doc);
        const auto it = state.outstanding.find(id);
        if (it != state.outstanding.end()) {
          state.revoked[id] = it->second;
          state.outstanding.erase(it);
        }
      }
      // Operational events (spawn/restart/stale_kill/reassign/...) carry
      // no durable lease state.
    } catch (const std::exception&) {
      ++state.skipped_lines;  // well-formed JSON, malformed payload
    }
  }
  return state;
}

std::vector<util::JsonValue> LeaseLog::read_events(const std::string& path) {
  std::vector<util::JsonValue> events;
  const auto content = util::read_file_if_exists(path);
  if (!content.has_value()) return events;
  for (const auto& line : util::split(*content, '\n')) {
    if (util::trim(line).empty()) continue;
    try {
      events.push_back(util::JsonValue::parse(line));
    } catch (const std::exception&) {
      // torn tail: skip
    }
  }
  return events;
}

}  // namespace nada::svc
