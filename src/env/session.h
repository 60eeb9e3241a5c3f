// Chunk-level streaming session mechanics.
//
// StreamingSession reproduces Pensieve's trace-driven simulator: chunk
// download time is the integral of the trace bandwidth, plus a link RTT per
// request; the playback buffer drains during downloads, rebuffers when it
// hits zero, and the client sleeps when the buffer exceeds a cap.
//
// EmuSession is the "dash.js over Mahimahi" stand-in for Table 4: the same
// trace drives a higher-fidelity transfer model with TCP slow-start ramping,
// an HTTP request/response overhead per chunk, and RTT jitter. Absolute
// scores shift (small chunks pay proportionally more overhead, exactly the
// effect that separates the paper's Table 4 from Table 3) while design
// orderings are preserved.
#pragma once

#include <cstddef>
#include <vector>

#include "trace/trace.h"
#include "util/rng.h"
#include "video/video.h"

namespace nada::env {

/// Result of downloading one chunk.
struct DownloadResult {
  double download_time_s = 0.0;  ///< request start to last byte
  double rebuffer_s = 0.0;       ///< stall incurred while downloading
  double sleep_s = 0.0;          ///< idle wait because the buffer was full
  double buffer_s = 0.0;         ///< buffer level after appending the chunk
  double chunk_bytes = 0.0;      ///< nominal encoded size of the chunk
  double delivered_bytes = 0.0;  ///< payload bytes that actually arrived
  double throughput_mbps = 0.0;  ///< delivered bytes over download time
  /// True when the transfer hit its stall deadline before the last byte:
  /// `delivered_bytes < chunk_bytes` and the download is effectively dead
  /// air. Callers must not treat the chunk as cleanly fetched.
  bool truncated = false;
  bool video_finished = false;   ///< this was the last chunk
};

/// Pensieve-style simulator session over one trace and one video.
class StreamingSession {
 public:
  static constexpr double kLinkRttS = 0.08;  ///< per-request latency
  static constexpr double kPacketPayloadRatio = 0.95;  ///< header overhead
  static constexpr double kBufferCapS = 60.0;  ///< client pauses above this
  static constexpr double kDrainQuantumS = 0.5;  ///< sleep granularity

  StreamingSession(const trace::Trace& trace, const video::Video& video,
                   double start_offset_s = 0.0);

  /// Downloads the next chunk at `level`; advances simulated time.
  DownloadResult download_chunk(std::size_t level);

  [[nodiscard]] std::size_t next_chunk_index() const { return next_chunk_; }
  [[nodiscard]] std::size_t chunks_remaining() const;
  [[nodiscard]] double buffer_s() const { return buffer_s_; }
  [[nodiscard]] double clock_s() const { return clock_s_; }
  [[nodiscard]] bool finished() const {
    return next_chunk_ >= video_->num_chunks();
  }
  [[nodiscard]] const video::Video& video() const { return *video_; }

  virtual ~StreamingSession() = default;

  /// Transfers give up after this much wall-clock time; a chunk that has
  /// not finished by then is reported truncated rather than complete.
  static constexpr double kStallDeadlineS = 3600.0;

 protected:
  /// Outcome of moving payload bytes across the link.
  struct TransferResult {
    double elapsed_s = 0.0;        ///< request start to last byte (or deadline)
    double delivered_bytes = 0.0;  ///< payload bytes that made it across
    bool completed = true;         ///< false when the stall deadline hit
  };

  /// Moves `bytes` across the link starting at `start_s`. Overridden by
  /// EmuSession with the higher-fidelity transfer model. Implementations
  /// stop at kStallDeadlineS and report how much actually arrived instead
  /// of pretending the transfer finished.
  [[nodiscard]] virtual TransferResult transfer(double bytes, double start_s);

  const trace::Trace* trace_;
  const video::Video* video_;

 private:
  std::size_t next_chunk_ = 0;
  double buffer_s_ = 0.0;
  double clock_s_ = 0.0;
};

/// Emulation-fidelity session. Each chunk is fetched over a fresh
/// HTTP request whose effective rate ramps with TCP slow start before
/// tracking the trace bandwidth; per-request overheads and RTT jitter give
/// it systematically different absolute scores than StreamingSession. The
/// buffer cap and drain quantum are the simulator's.
class EmuSession : public StreamingSession {
 public:
  static constexpr double kBaseRttS = 0.08;
  static constexpr double kRttJitterS = 0.02;  ///< uniform, per request
  static constexpr double kServerDelayS = 0.05;  ///< HTTP request processing
  static constexpr double kSlowStartInitBytes = 14600.0;  ///< IW10
  static constexpr double kHeaderOverheadRatio = 0.92;  ///< TCP/IP+TLS framing

  EmuSession(const trace::Trace& trace, const video::Video& video,
             util::Rng& rng, double start_offset_s = 0.0);

 protected:
  [[nodiscard]] TransferResult transfer(double bytes, double start_s) override;

 private:
  util::Rng* rng_;
};

}  // namespace nada::env
