// Test helper: a store journal's full record history as sorted JSONL lines.
//
// Two runs that journal in different orders (shards vs one stream, windows
// vs batch, leases vs one process) hold the same history iff these line
// sets match. Binary frames cannot be line-sorted, so the journal goes
// through the same store_convert export that CI diffs use.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "store/convert.h"
#include "util/fs.h"

namespace nada::test {

inline std::vector<std::string> sorted_journal_lines(
    const std::string& journal) {
  const std::string exported = journal + ".export.jsonl";
  (void)store::convert_journal(journal, exported);
  std::vector<std::string> lines;
  std::istringstream in(util::read_file(exported));
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

}  // namespace nada::test
