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
#include <cstdint>
#include <memory>
#include <span>
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

/// The multiply-adds of one forward pass of the network `spec` builds for
/// `sig` with `num_actions` actions: every branch (a scalar row's dense
/// units, a conv's taps x outputs x filters, an RNN's or LSTM's recurrence
/// x row length, a dense temporal unit's row x units), the merge layers and
/// both heads, over both towers unless the trunk is shared. Activations
/// and softmax are not counted. A static cost for ordering training jobs
/// of one config; throws ArchError where validate_spec does.
[[nodiscard]] std::uint64_t step_cost(const ArchSpec& spec,
                                      const StateSignature& sig,
                                      std::size_t num_actions);

/// Actor-critic network instantiated from an ArchSpec.
///
/// A network runs one of two ways, both through one step that writes
/// softmax(logits) into a row the caller gives and returns the critic's
/// value. infer() acts: it touches no capture cache and takes the layers'
/// fast paths once sync_inference_cache() has run. Training captures:
/// begin_batch_capture(n) sizes every layer's batch caches, capture(rows,
/// row, probs) computes one state into cache row `row`, and
/// backward_batch() takes one gradient row per captured state for the
/// actor logits and the critic value and accumulates parameter gradients.
/// Both compute the same outputs, bit for bit, and neither allocates: each
/// layer hands the next a span of its own output row, each tower
/// assembles its merge input in one row it reuses, and inference writes
/// into one-row buffers the network owns (so a network serves one thread
/// at a time).
class ActorCriticNet {
 public:
  ActorCriticNet(const ArchSpec& spec, const StateSignature& sig,
                 std::size_t num_actions, util::Rng& rng);

  /// One step's outputs as fresh vectors, for callers that keep them
  /// (tests, the arch pre-check's smoke pass, nada_bench).
  struct Output {
    Vec logits;
    Vec probs;      ///< softmax(logits)
    double value = 0.0;
  };

  /// Inference step: writes softmax(logits) into `probs` (num_actions()
  /// doubles) and returns the value. Touches no capture cache (safe to
  /// interleave with a pending backward_batch) and uses the layers' fast
  /// paths when sync_inference_cache() has been called since the last
  /// weight change. rl::PolicyAgent::decide — i.e. every greedy
  /// evaluation rollout — runs on this; training rollouts use capture()
  /// instead so the batch caches fill as a side effect. Throws
  /// std::invalid_argument unless `state_rows` fits the signature.
  double infer(const std::vector<Vec>& state_rows, std::span<double> probs);
  /// infer() as an Output.
  [[nodiscard]] Output forward_inference(const std::vector<Vec>& state_rows);

  /// Refreshes every layer's derived inference state (transposed weights).
  /// Call after construction and after each optimizer step when using
  /// the fast path.
  void sync_inference_cache();

  /// Row-at-a-time forward for training: begin_batch_capture sizes every
  /// layer's batch caches for `batch` states; each capture computes one
  /// state (on the fast inference path when synced), writes
  /// softmax(logits) into `probs` and returns the value, and fills that
  /// state's cache row, so a full episode can go straight to
  /// backward_batch with no second forward pass. capture throws
  /// std::invalid_argument unless `state_rows` fits the signature and
  /// std::out_of_range unless `row` is below `batch`.
  void begin_batch_capture(std::size_t batch);
  double capture(const std::vector<Vec>& state_rows, std::size_t row,
                 std::span<double> probs);
  /// capture() as an Output.
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
    /// The merge input (concat_dim doubles): every branch's output side by
    /// side, reassembled by each step of either kind.
    Vec concat;
    /// infer()'s one-row outputs: one per merge layer, then the head's.
    std::vector<Vec> infer_rows;
    /// infer()'s layer scratch: the widest branch's infer_scratch().
    Vec infer_scratch;

    /// Each layer captures into cache row `row`; returns the top layer's
    /// output, a span of its cache row.
    std::span<const double> capture(const std::vector<Vec>& rows,
                                    std::size_t row);
    /// The same outputs through the layers' inference into the tower's
    /// own rows; touches no capture cache.
    std::span<const double> infer(const std::vector<Vec>& rows);
    void sync_inference_cache();
    void begin_capture(std::size_t batch);
    /// Returns nothing useful upstream (inputs are the observation).
    void backward_batch(const Mat& dhead);
    void collect_params(std::vector<ParamRef>& out);
  };

  /// One step's logits (a span of the actor head's output row) and value.
  struct Heads {
    std::span<const double> logits;
    double value = 0.0;

    /// The network step both kinds share: writes softmax(logits) into
    /// `probs` and returns the value.
    double finish(std::span<double> probs) const;
    [[nodiscard]] Output output() const;
  };
  Heads capture_heads(const std::vector<Vec>& state_rows, std::size_t row);
  Heads infer_heads(const std::vector<Vec>& state_rows);

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
  Vec shared_logits_;  ///< actor_head_'s inference row (shared trunk only)
};

}  // namespace nada::nn
