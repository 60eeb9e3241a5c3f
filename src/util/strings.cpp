#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace nada::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view trim(std::string_view text) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!text.empty() && is_space(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && is_space(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string join(std::span<const std::string> parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = kFnv1a64Offset;
  for (char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= kFnv1a64Prime;
  }
  return hash;
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t seed) {
  std::uint64_t hash = kFnv1a64Offset ^ mix64(seed);
  for (char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= kFnv1a64Prime;
  }
  return hash;
}

std::string shortest_double(double value) {
  char buf[kShortestDoubleChars];
  return std::string(shortest_double(value, buf));
}

std::string_view shortest_double(double value,
                                 std::span<char, kShortestDoubleChars> buf) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(),
                                       value);
  if (ec != std::errc()) return "?";
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string format_duration(double seconds) {
  if (std::isnan(seconds)) return "nan";
  if (seconds < 0) {
    std::string out = format_duration(-seconds);
    out.insert(out.begin(), '-');
    return out;
  }
  if (std::isinf(seconds)) return "inf";
  char buf[64];
  if (seconds < 0.001) {
    std::snprintf(buf, sizeof(buf), "%.3fms", seconds * 1000.0);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1fms", seconds * 1000.0);
  } else if (seconds < 60.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else if (seconds < 3600.0) {
    const auto whole = static_cast<long>(seconds);
    std::snprintf(buf, sizeof(buf), "%ldm%02lds", whole / 60, whole % 60);
  } else {
    const auto minutes = static_cast<long>(seconds / 60.0);
    std::snprintf(buf, sizeof(buf), "%ldh%02ldm", minutes / 60, minutes % 60);
  }
  return buf;
}

std::string replace_all(std::string text, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return text;
  std::size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

}  // namespace nada::util
