#include "env/abr_env.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace nada::env {

const dsl::Vocabulary& input_variables() {
  // Slot order: AbrSlot names these slots, and env_test pins every name
  // against it.
  static const dsl::Vocabulary kVars({
      {"throughput_mbps", true},
      {"download_time_s", true},
      {"buffer_size_s_history", true},
      {"next_chunk_sizes_bytes", true},
      {"bitrate_levels_kbps", true},
      {"buffer_size_s", false},
      {"chunks_remaining", false},
      {"total_chunks", false},
      {"last_bitrate_kbps", false},
      {"chunk_length_s", false},
      {"max_bitrate_kbps", false},
  });
  return kVars;
}

AbrEnv::AbrEnv(const trace::Trace& trace, const video::Video& video,
               Fidelity fidelity, util::Rng& rng)
    : trace_(&trace),
      video_(&video),
      fidelity_(fidelity),
      rng_(&rng),
      qoe_(video.ladder()) {}

const dsl::Bindings& AbrEnv::reset() {
  // Random offset so different episodes see different trace regions; leave
  // at least a second of slack inside the trace.
  const double offset =
      rng_->uniform(0.0, std::max(trace_->duration_s() - 1.0, 0.0));
  if (fidelity_ == Fidelity::kSimulation) {
    session_ = std::make_unique<StreamingSession>(*trace_, *video_, offset);
  } else {
    session_ = std::make_unique<EmuSession>(*trace_, *video_, *rng_, offset);
  }
  last_download_ = DownloadResult{};
  last_level_ = 0;  // Pensieve starts at the lowest quality

  for (const AbrSlot slot :
       {kThroughputMbps, kDownloadTimeS, kBufferSizeSHistory}) {
    frame_[slot].mutable_vector().assign(kHistoryLen, 0.0);
  }
  const auto ladder = video_->ladder().all_kbps();
  frame_[kNextChunkSizesBytes].mutable_vector().resize(ladder.size());
  frame_[kBitrateLevelsKbps].mutable_vector().assign(ladder.begin(),
                                                     ladder.end());
  frame_[kTotalChunks].set_scalar(static_cast<double>(video_->num_chunks()));
  frame_[kChunkLengthS].set_scalar(video_->chunk_len_s());
  frame_[kMaxBitrateKbps].set_scalar(ladder.back());
  write_step_slots();
  return frame_;
}

void AbrEnv::write_step_slots() {
  frame_[kBufferSizeS].set_scalar(session_->buffer_s());
  frame_[kChunksRemaining].set_scalar(
      static_cast<double>(session_->chunks_remaining()));
  frame_[kLastBitrateKbps].set_scalar(video_->ladder().kbps(last_level_));
  std::vector<double>& next = frame_[kNextChunkSizesBytes].mutable_vector();
  for (std::size_t level = 0; level < next.size(); ++level) {
    next[level] = session_->finished()
                      ? 0.0
                      : video_->chunk_bytes(session_->next_chunk_index(),
                                            level);
  }
}

void AbrEnv::require_session() const {
  if (session_ == nullptr) {
    throw std::logic_error("AbrEnv: reset() must be called before use");
  }
}

DomainStep AbrEnv::step(std::size_t level) {
  require_session();
  if (done()) throw std::logic_error("AbrEnv::step after episode end");
  last_download_ = session_->download_chunk(level);
  const DownloadResult& dl = last_download_;

  double reward = qoe_.chunk_reward(level, last_level_, dl.rebuffer_s);
  if (dl.truncated) {
    // The transfer died at the stall deadline: whatever the QoE terms say,
    // a dead download must never score positively.
    reward = std::min(reward, 0.0);
  }
  last_level_ = level;
  shift_in(frame_[kThroughputMbps], dl.throughput_mbps);
  shift_in(frame_[kDownloadTimeS], dl.download_time_s);
  shift_in(frame_[kBufferSizeSHistory], dl.buffer_s);
  write_step_slots();
  return DomainStep{reward, dl.video_finished};
}

bool AbrEnv::done() const {
  require_session();
  return session_->finished();
}

}  // namespace nada::env
