// store_convert: export a binary store journal to JSONL, or import one.
//
//   store_convert --in runs/fcc-abc.nsb --out runs/fcc-abc.jsonl  # export
//   store_convert --in legacy.jsonl --out runs/fcc-abc.nsb        # import
//
// The store itself only reads and writes binary journals; JSONL is the
// greppable, line-diffable export (CI compares runs through it) and the
// migration path for journals written before the JSONL backend was
// retired. The output format is implied by the --out extension (".nsb" =
// binary, anything else JSONL). Conversion is lossless and
// order-preserving: every decodable record is re-encoded with the scope
// its journal entry carried, duplicates and all, so converting back
// reproduces the original journal byte for byte (modulo recovered
// torn/corrupt units, which are dropped and reported). Exit 0 on success,
// 2 on usage or I/O errors.
#include <cstdio>
#include <exception>
#include <string>

#include "store/convert.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --in <journal> --out <journal>\n"
               "  formats by extension: .nsb = binary, otherwise JSONL\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--in" && i + 1 < argc) {
      in_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (in_path.empty() || out_path.empty() || in_path == out_path) {
    return usage(argv[0]);
  }
  try {
    const auto stats = nada::store::convert_journal(in_path, out_path);
    std::printf("converted %zu record(s) %s -> %s (%zu torn/corrupt unit(s) "
                "dropped)\n",
                stats.records, in_path.c_str(), out_path.c_str(),
                stats.skipped);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store_convert: %s\n", e.what());
    return 2;
  }
  return 0;
}
