#include "dsl/state_program.h"

#include "dsl/parser.h"
#include "dsl/vm.h"

namespace nada::dsl {

StateProgram::StateProgram(std::string source, Program program)
    : source_(std::move(source)),
      program_(std::move(program)),
      code_(std::make_shared<const CompiledProgram>(
          compile_program(program_))),
      signature_cache_(std::make_shared<SignatureCache>()) {}

StateProgram StateProgram::compile(std::string source) {
  Program program = parse(source);
  return StateProgram(std::move(source), std::move(program));
}

StateMatrix StateProgram::run(const Bindings& inputs) const {
  // One VM per thread: run() is called concurrently on shared programs
  // (pre-checks run on the pool, and every seed of a design is its own
  // training-engine task there), and a Vm is single-threaded mutable
  // state. The matrix is copied out for API compatibility; allocation-free
  // execution uses PolicyAgent's own Vm.
  thread_local Vm vm;
  return vm.run(*code_, inputs);
}

std::vector<std::size_t> StateProgram::signature_row_lengths(
    const BindingCatalog& catalog) const {
  {
    std::lock_guard<std::mutex> lock(signature_cache_->mu);
    if (signature_cache_->catalog == &catalog) {
      return signature_cache_->lengths;
    }
  }
  std::vector<std::size_t> lengths = run(catalog.canned()).row_lengths();
  prime_signature(catalog, lengths);
  return lengths;
}

void StateProgram::prime_signature(const BindingCatalog& catalog,
                                   std::vector<std::size_t> lengths) const {
  std::lock_guard<std::mutex> lock(signature_cache_->mu);
  signature_cache_->catalog = &catalog;
  signature_cache_->lengths = std::move(lengths);
}

const std::string& pensieve_state_source() {
  static const std::string kSource = R"(# Original Pensieve state representation (Mao et al., SIGCOMM 2017).
# Six rows: scalar features normalized to ~[0, 1], histories passed to the
# network's temporal units.
emit "last_quality" = last_bitrate_kbps / max_bitrate_kbps;
emit "buffer_s" = buffer_size_s / 10.0;
emit "throughput" = throughput_mbps / 8.0;
emit "download_time" = download_time_s / 10.0;
emit "next_sizes_mb" = next_chunk_sizes_bytes / 1000000.0;
emit "chunks_left" = chunks_remaining / total_chunks;
)";
  return kSource;
}

}  // namespace nada::dsl
