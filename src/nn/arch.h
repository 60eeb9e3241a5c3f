// Actor-critic network architectures as data.
//
// NADA searches over neural network architectures expressed as code blocks;
// here the searchable space is ArchSpec — a declarative description covering
// Pensieve's original design and every architecture variant §4 of the paper
// reports the LLMs discovering: larger hidden layers, Leaky ReLU, RNN or
// LSTM replacing the 1D-CNN, and actor/critic sharing the hidden trunk.
//
// Instantiating an ActorCriticNet from a spec validates it; invalid specs
// throw ArchError — which is precisely what NADA's compilation check
// catches for architecture candidates.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "util/rng.h"

namespace nada::nn {

/// How vector-valued state rows (throughput history, etc.) are summarized.
enum class TemporalUnit { kConv1D, kRnn, kLstm, kDense };

[[nodiscard]] const char* temporal_unit_name(TemporalUnit u);

struct ArchSpec {
  TemporalUnit temporal = TemporalUnit::kConv1D;
  std::size_t conv_filters = 128;
  std::size_t conv_kernel = 4;
  std::size_t rnn_hidden = 128;
  std::size_t scalar_hidden = 128;  ///< dense units for scalar rows
  std::size_t merge_hidden = 128;   ///< width of post-concat dense layers
  std::size_t merge_layers = 1;     ///< how many post-concat dense layers
  Activation activation = Activation::kRelu;
  bool shared_trunk = false;  ///< actor & critic share branches + merge

  /// Human-readable single-line description (report/debug output).
  [[nodiscard]] std::string describe() const;

  /// Pensieve's original architecture.
  [[nodiscard]] static ArchSpec pensieve();
};

/// The shape of a state matrix: one entry per row; length 1 means scalar.
struct StateSignature {
  std::vector<std::size_t> row_lengths;

  [[nodiscard]] std::size_t rows() const { return row_lengths.size(); }
};

/// Thrown when a spec cannot be instantiated (the arch "compilation" error).
class ArchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Validates a spec against a signature; throws ArchError explaining the
/// first problem found.
void validate_spec(const ArchSpec& spec, const StateSignature& sig);

/// Actor-critic network instantiated from an ArchSpec.
///
/// forward() consumes the state rows; backward() takes the gradient of the
/// loss with respect to the actor logits and the critic value and
/// accumulates parameter gradients.
class ActorCriticNet {
 public:
  ActorCriticNet(const ArchSpec& spec, const StateSignature& sig,
                 std::size_t num_actions, util::Rng& rng);

  struct Output {
    Vec logits;
    Vec probs;      ///< softmax(logits)
    double value = 0.0;
  };

  Output forward(const std::vector<Vec>& state_rows);
  void backward(const Vec& dlogits, double dvalue);

  /// Inference-only forward: bit-identical outputs to forward(), but
  /// touches no layer caches (safe to interleave with a pending batched
  /// backward) and uses the layers' fast inference paths when
  /// sync_inference_cache() has been called since the last weight change.
  /// rl::PolicyAgent::decide — i.e. every greedy evaluation rollout —
  /// runs on this; training rollouts use forward_capture instead so the
  /// batch caches fill as a side effect.
  [[nodiscard]] Output forward_inference(
      const std::vector<Vec>& state_rows) const;

  /// Refreshes every layer's derived inference state (transposed weights).
  /// Call after construction and after each optimizer step when using
  /// forward_inference on the fast path.
  void sync_inference_cache();

  /// Batched actor-critic pass over many states at once (the probe
  /// trainer's per-epoch update path). Row b of every output is
  /// bit-identical to forward(state_rows[b]).
  struct BatchOutput {
    Mat logits;              ///< batch x num_actions
    std::vector<Vec> probs;  ///< per-sample softmax(logits row)
    Vec values;              ///< per-sample critic value
  };

  BatchOutput forward_batch(const std::vector<std::vector<Vec>>& state_rows);

  /// Batched gradient accumulation for the last forward_batch() or
  /// completed capture sequence. Parameter gradients accumulate in
  /// ascending sample order, bit-identical to a loop of single-sample
  /// forward()+backward() calls.
  void backward_batch(const Mat& dlogits, const Vec& dvalues);

  /// Row-at-a-time batched forward for rollouts: begin_batch_capture sizes
  /// every layer's batch caches for `batch` samples; each forward_capture
  /// computes one sample (bit-identical to forward(), on the fast
  /// inference path when synced) and fills that sample's cache row, so a
  /// full episode can go straight to backward_batch with no second
  /// forward pass.
  void begin_batch_capture(std::size_t batch);
  Output forward_capture(const std::vector<Vec>& state_rows,
                         std::size_t row);

  std::vector<ParamRef> params();
  void zero_grad();

  /// Flat weight vector (checkpointing / cloning across seeds).
  [[nodiscard]] Vec get_weights() const;
  void set_weights(const Vec& weights);
  [[nodiscard]] std::size_t num_params() const;

  [[nodiscard]] const ArchSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t num_actions() const { return num_actions_; }

 private:
  /// One branch-per-row + merge stack + linear head.
  struct Tower {
    std::vector<std::unique_ptr<Layer>> branches;
    std::vector<std::unique_ptr<Dense>> merge;
    std::unique_ptr<Dense> head;
    // forward caches
    std::vector<std::size_t> branch_offsets;
    Vec concat_cache;
    // batched forward caches (separate so rollout-time single-sample
    // forwards and the per-epoch batched update never clobber each other)
    std::vector<std::size_t> branch_offsets_batch;
    std::size_t concat_cols_batch = 0;

    Vec forward(const std::vector<Vec>& rows);
    /// Returns nothing useful upstream (inputs are the observation).
    void backward(const Vec& dhead);
    /// Batched twins: one Mat per branch, rows are samples.
    Mat forward_batch(const std::vector<Mat>& rows);
    void backward_batch(const Mat& dhead);
    /// Cache-free forward (same math, no state mutated).
    [[nodiscard]] Vec infer(const std::vector<Vec>& rows) const;
    void sync_inference_cache();
    /// Row-at-a-time capture twins of forward_batch/backward_batch.
    void begin_capture(std::size_t batch);
    Vec forward_capture(const std::vector<Vec>& rows, std::size_t row);
    void collect_params(std::vector<ParamRef>& out);
  };

  Tower build_tower(const StateSignature& sig, std::size_t head_dim,
                    util::Rng& rng) const;

  ArchSpec spec_;
  StateSignature sig_;
  std::size_t num_actions_;

  // Non-shared: actor_ and critic_ are full towers. Shared: trunk_ feeds
  // both linear heads.
  bool shared_;
  Tower actor_;
  Tower critic_;
  Tower trunk_;
  std::unique_ptr<Dense> actor_head_;
  std::unique_ptr<Dense> critic_head_;
  Vec trunk_out_cache_;
  Mat trunk_batch_cache_;
};

}  // namespace nada::nn
