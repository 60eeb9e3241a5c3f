#include "env/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nada::env {
namespace {

struct IntegrateResult {
  double elapsed_s = 0.0;
  double delivered_wire_bytes = 0.0;
  bool completed = true;
};

// Integrates `wire_bytes` over the trace's piecewise-constant bandwidth
// starting at absolute time `start_s`. Gives up at the stall deadline and
// reports how many bytes made it, rather than pretending completion.
IntegrateResult integrate_transfer(const trace::Trace& tr, double wire_bytes,
                                   double start_s) {
  if (wire_bytes <= 0.0) return {};
  const double duration = tr.duration_s();
  if (duration <= 0.0) {
    throw std::invalid_argument("integrate_transfer: degenerate trace");
  }
  double remaining = wire_bytes;
  double t = start_s;
  const double deadline = start_s + StreamingSession::kStallDeadlineS;
  while (remaining > 0.0 && t < deadline) {
    const std::size_t idx = tr.index_at(t);
    const auto& points = tr.points();
    // Segments are clamped at the deadline so a single long trace segment
    // cannot deliver bytes (or declare completion) past it.
    const double seg_end_abs = [&] {
      double wrapped = std::fmod(t, duration);
      if (wrapped < 0.0) wrapped += duration;
      const double seg_end_wrapped = (idx + 1 < points.size())
                                         ? points[idx + 1].time_s
                                         : duration;
      return std::min(t + (seg_end_wrapped - wrapped), deadline);
    }();
    const double bytes_per_s =
        std::max(points[idx].bandwidth_kbps, 1.0) * 1000.0 / 8.0;
    const double seg_time = std::max(seg_end_abs - t, 1e-9);
    const double seg_capacity = bytes_per_s * seg_time;
    if (seg_capacity >= remaining) {
      t += remaining / bytes_per_s;
      remaining = 0.0;
    } else {
      remaining -= seg_capacity;
      t = seg_end_abs;
    }
  }
  IntegrateResult result;
  result.elapsed_s = t - start_s;
  result.delivered_wire_bytes = wire_bytes - std::max(remaining, 0.0);
  result.completed = remaining <= 0.0;
  return result;
}

}  // namespace

StreamingSession::StreamingSession(const trace::Trace& trace,
                                   const video::Video& video,
                                   double start_offset_s)
    : trace_(&trace), video_(&video), clock_s_(start_offset_s) {}

std::size_t StreamingSession::chunks_remaining() const {
  return video_->num_chunks() - next_chunk_;
}

DownloadResult StreamingSession::download_chunk(std::size_t level) {
  if (finished()) {
    throw std::logic_error("download_chunk: video already finished");
  }
  if (level >= video_->ladder().levels()) {
    throw std::out_of_range("download_chunk: bitrate level out of range");
  }
  DownloadResult result;
  result.chunk_bytes = video_->chunk_bytes(next_chunk_, level);

  const TransferResult tr = transfer(result.chunk_bytes, clock_s_);
  const double dt = tr.elapsed_s;
  clock_s_ += dt;
  result.download_time_s = dt;
  result.truncated = !tr.completed;
  result.delivered_bytes = tr.delivered_bytes;
  // Throughput reflects what actually arrived: a transfer that hit the
  // stall deadline must not report the full chunk as having crossed the
  // link in `dt` seconds.
  result.throughput_mbps =
      result.delivered_bytes * 8.0 / 1e6 / std::max(dt, 1e-9);

  // Buffer drains while downloading; stall if it empties.
  result.rebuffer_s = std::max(dt - buffer_s_, 0.0);
  buffer_s_ = std::max(buffer_s_ - dt, 0.0);
  buffer_s_ += video_->chunk_len_s();

  // Client pauses requests while the buffer is above the cap (Pensieve
  // drains in fixed quanta while wall-clock time advances).
  if (buffer_s_ > kBufferCapS) {
    const double excess = buffer_s_ - kBufferCapS;
    const double quanta = std::ceil(excess / kDrainQuantumS) * kDrainQuantumS;
    result.sleep_s = quanta;
    buffer_s_ -= quanta;
    clock_s_ += quanta;
  }

  result.buffer_s = buffer_s_;
  ++next_chunk_;
  result.video_finished = finished();
  return result;
}

StreamingSession::TransferResult StreamingSession::transfer(double bytes,
                                                            double start_s) {
  const double wire_bytes = bytes / kPacketPayloadRatio;
  const IntegrateResult integrated =
      integrate_transfer(*trace_, wire_bytes, start_s);
  TransferResult result;
  result.elapsed_s = kLinkRttS + integrated.elapsed_s;
  result.completed = integrated.completed;
  // Report exact chunk bytes on completion so the payload round-trip through
  // the wire ratio cannot drift by a rounding error.
  result.delivered_bytes =
      integrated.completed
          ? bytes
          : integrated.delivered_wire_bytes * kPacketPayloadRatio;
  return result;
}

EmuSession::EmuSession(const trace::Trace& trace, const video::Video& video,
                       util::Rng& rng, double start_offset_s)
    : StreamingSession(trace, video, start_offset_s), rng_(&rng) {}

StreamingSession::TransferResult EmuSession::transfer(double bytes,
                                                      double start_s) {
  // Per-request overhead: request RTT with jitter plus server think time.
  const double rtt = kBaseRttS + rng_->uniform(0.0, kRttJitterS);
  double t = start_s + rtt + kServerDelayS;

  // TCP slow start: the connection's allowed rate doubles every RTT from an
  // initial window until it reaches the trace's available bandwidth. We
  // integrate in small steps, applying min(cwnd rate, link rate).
  const double total_wire_bytes = bytes / kHeaderOverheadRatio;
  double wire_bytes = total_wire_bytes;
  double window_bytes = kSlowStartInitBytes;
  const double step = std::max(rtt / 4.0, 0.005);
  const double deadline = t + kStallDeadlineS;
  while (wire_bytes > 0.0 && t < deadline) {
    const double link_bytes_per_s =
        std::max(trace_->bandwidth_kbps_at(t), 1.0) * 1000.0 / 8.0;
    const double cwnd_bytes_per_s = window_bytes / rtt;
    const double rate = std::min(link_bytes_per_s, cwnd_bytes_per_s);
    const double sent = rate * step;
    if (sent >= wire_bytes) {
      t += wire_bytes / rate;
      wire_bytes = 0.0;
    } else {
      wire_bytes -= sent;
      t += step;
      // Exponential growth until the congestion window stops being the
      // bottleneck (we do not model loss-based back-off: mahimahi's default
      // drop-tail queue rarely forces it at these chunk sizes).
      if (cwnd_bytes_per_s < link_bytes_per_s) {
        window_bytes *= std::pow(2.0, step / rtt);
      }
    }
  }
  TransferResult result;
  result.elapsed_s = t - start_s;
  result.completed = wire_bytes <= 0.0;
  result.delivered_bytes =
      result.completed ? bytes
                       : (total_wire_bytes - wire_bytes) *
                             kHeaderOverheadRatio;
  return result;
}

}  // namespace nada::env
