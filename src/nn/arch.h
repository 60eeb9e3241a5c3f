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
/// A network runs one of two ways. forward_inference() acts: it touches no
/// cache and takes the layers' fast paths once sync_inference_cache() has
/// run. Training captures: begin_batch_capture(n) sizes every layer's
/// batch caches, forward_capture(rows, row) computes one state into cache
/// row `row`, and backward_batch() takes one gradient row per captured
/// state for the actor logits and the critic value and accumulates
/// parameter gradients. Both forwards compute the same outputs.
class ActorCriticNet {
 public:
  ActorCriticNet(const ArchSpec& spec, const StateSignature& sig,
                 std::size_t num_actions, util::Rng& rng);

  struct Output {
    Vec logits;
    Vec probs;      ///< softmax(logits)
    double value = 0.0;
  };

  /// Inference-only forward: touches no layer caches (safe to interleave
  /// with a pending backward_batch) and uses the layers' fast inference
  /// paths when sync_inference_cache() has been called since the last
  /// weight change. rl::PolicyAgent::decide — i.e. every greedy evaluation
  /// rollout — runs on this; training rollouts use forward_capture instead
  /// so the batch caches fill as a side effect.
  [[nodiscard]] Output forward_inference(
      const std::vector<Vec>& state_rows) const;

  /// Refreshes every layer's derived inference state (transposed weights).
  /// Call after construction and after each optimizer step when using
  /// the fast path.
  void sync_inference_cache();

  /// Row-at-a-time forward for training: begin_batch_capture sizes every
  /// layer's batch caches for `batch` states; each forward_capture computes
  /// one state (on the fast inference path when synced) and fills that
  /// state's cache row, so a full episode can go straight to
  /// backward_batch with no second forward pass. forward_capture throws
  /// std::out_of_range unless `row` is below `batch`.
  void begin_batch_capture(std::size_t batch);
  Output forward_capture(const std::vector<Vec>& state_rows,
                         std::size_t row);

  /// Gradient accumulation for the completed capture: row b of `dlogits`
  /// and `dvalues[b]` are the loss gradients for captured state b.
  /// Parameter gradients accumulate in ascending row order.
  void backward_batch(const Mat& dlogits, const Vec& dvalues);

  std::vector<ParamRef> params();
  void zero_grad();

  [[nodiscard]] const ArchSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t num_actions() const { return num_actions_; }

 private:
  /// One branch-per-row + merge stack + linear head.
  struct Tower {
    std::vector<std::unique_ptr<Layer>> branches;
    std::vector<std::unique_ptr<Dense>> merge;
    std::unique_ptr<Dense> head;
    // Where each branch's output starts in the concatenated merge input.
    std::vector<std::size_t> branch_offsets;
    std::size_t concat_dim = 0;

    /// Cache-free forward (same math, no state mutated).
    [[nodiscard]] Vec infer(const std::vector<Vec>& rows) const;
    void sync_inference_cache();
    void begin_capture(std::size_t batch);
    Vec forward_capture(const std::vector<Vec>& rows, std::size_t row);
    /// Returns nothing useful upstream (inputs are the observation).
    void backward_batch(const Mat& dhead);
    void collect_params(std::vector<ParamRef>& out);
  };

  Tower build_tower(const StateSignature& sig, std::size_t head_dim,
                    util::Rng& rng) const;
  /// Throws std::invalid_argument unless `state_rows` fits the signature;
  /// `caller` names the forward in the message.
  void check_state_rows(const std::vector<Vec>& state_rows,
                        const char* caller) const;

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
};

}  // namespace nada::nn
