// RL-facing ABR environment.
//
// AbrEnv runs a StreamingSession (or EmuSession) and is the ABR domain's
// env::Episode: it owns one frame over input_variables() and writes the
// *raw* observation quantities Pensieve's state function consumes into it,
// in place — throughput and download-time histories, next-chunk sizes per
// bitrate, buffer level, chunks remaining, and the last selected bitrate.
// It also tracks a buffer history — unused by the original design, but
// exactly the signal the paper reports LLM-generated states exploiting
// (§4). The classic policies in src/abr/ read the same frame.
//
// The mapping from the frame to the network's input tensor is the *state
// function* — the component NADA searches over — and lives in src/dsl.
#pragma once

#include <cstddef>
#include <memory>

#include "dsl/binding_catalog.h"
#include "env/domain.h"
#include "env/session.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "video/video.h"

namespace nada::env {

/// Number of past samples kept for every history (Pensieve's S_LEN).
inline constexpr std::size_t kHistoryLen = 8;

/// The ABR observation variables exposed to programs, in slot order.
[[nodiscard]] const dsl::Vocabulary& input_variables();

/// The slot of each variable of input_variables(), in its order. Histories
/// are oldest-first and zero-padded until enough chunks have been
/// downloaded.
enum AbrSlot : std::size_t {
  kThroughputMbps,       ///< last kHistoryLen measured throughputs
  kDownloadTimeS,        ///< last kHistoryLen download times
  kBufferSizeSHistory,   ///< last kHistoryLen buffer levels
  kNextChunkSizesBytes,  ///< next chunk's size per level (0 after the last)
  kBitrateLevelsKbps,    ///< the bitrate ladder
  kBufferSizeS,          ///< current playback buffer
  kChunksRemaining,
  kTotalChunks,
  kLastBitrateKbps,
  kChunkLengthS,
  kMaxBitrateKbps,       ///< the ladder's top rung
};

// Fidelity (kSimulation: paper Tables 3/5, Figures 3/4; kEmulation: paper
// Table 4) lives in env/domain.h so every domain shares the enum.

/// One episode = one video streamed over one trace. The session starts at a
/// random offset into the trace, as in Pensieve's training setup.
///
/// Construction consumes no randomness: the RNG is only drawn when reset()
/// starts an episode, so the caller's seed stream is a pure function of the
/// episodes it actually runs — the property the batched/serial probe
/// equivalence guarantee rests on. reset() must be called before step().
class AbrEnv final : public Episode {
 public:
  AbrEnv(const trace::Trace& trace, const video::Video& video,
         Fidelity fidelity, util::Rng& rng);

  /// Starts a fresh episode (new random trace offset) and writes the
  /// initial observation, per-episode constants included. The first chunk
  /// has not been downloaded yet, so histories are zeros and last_bitrate
  /// is the lowest level, as in Pensieve.
  [[nodiscard]] const dsl::Bindings& reset() override;

  /// Downloads the next chunk at bitrate index `level`. The reward is
  /// QoE_lin for the chunk, capped at zero when its transfer hit the
  /// session's stall deadline (see last_download()).
  [[nodiscard]] DomainStep step(std::size_t level) override;

  [[nodiscard]] bool done() const override;

  /// The chunk download of the last step(): rebuffer and download time,
  /// and whether it was truncated at the stall deadline (its throughput
  /// then reflects only the bytes actually delivered).
  [[nodiscard]] const DownloadResult& last_download() const {
    return last_download_;
  }

 private:
  /// Writes the slots a step changes besides the histories.
  void write_step_slots();
  void require_session() const;

  const trace::Trace* trace_;
  const video::Video* video_;
  Fidelity fidelity_;
  util::Rng* rng_;
  video::QoELin qoe_;
  std::unique_ptr<StreamingSession> session_;
  DownloadResult last_download_;
  std::size_t last_level_ = 0;
  dsl::Bindings frame_{input_variables()};
};

}  // namespace nada::env
