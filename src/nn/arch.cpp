#include "nn/arch.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace nada::nn {

const char* temporal_unit_name(TemporalUnit u) {
  switch (u) {
    case TemporalUnit::kConv1D: return "conv1d";
    case TemporalUnit::kRnn: return "rnn";
    case TemporalUnit::kLstm: return "lstm";
    case TemporalUnit::kDense: return "dense";
  }
  return "?";
}

std::string ArchSpec::describe() const {
  std::ostringstream out;
  out << "arch{" << temporal_unit_name(temporal);
  if (temporal == TemporalUnit::kConv1D) {
    out << "(f=" << conv_filters << ",k=" << conv_kernel << ")";
  } else if (temporal != TemporalUnit::kDense) {
    out << "(h=" << rnn_hidden << ")";
  }
  out << ", scalar=" << scalar_hidden << ", merge=" << merge_hidden << "x"
      << merge_layers << ", act=" << activation_name(activation)
      << (shared_trunk ? ", shared" : ", separate") << "}";
  return out.str();
}

ArchSpec ArchSpec::pensieve() { return ArchSpec{}; }

void validate_spec(const ArchSpec& spec, const StateSignature& sig) {
  if (sig.rows() == 0) throw ArchError("state signature has no rows");
  constexpr std::size_t kMaxWidth = 1024;
  auto check_width = [](std::size_t w, const char* what) {
    if (w == 0) throw ArchError(std::string(what) + " is zero");
    if (w > kMaxWidth) {
      throw ArchError(std::string(what) + " exceeds " +
                      std::to_string(kMaxWidth));
    }
  };
  check_width(spec.scalar_hidden, "scalar_hidden");
  check_width(spec.merge_hidden, "merge_hidden");
  if (spec.merge_layers == 0 || spec.merge_layers > 3) {
    throw ArchError("merge_layers must be in [1, 3]");
  }
  switch (spec.temporal) {
    case TemporalUnit::kConv1D: {
      check_width(spec.conv_filters, "conv_filters");
      if (spec.conv_kernel == 0) throw ArchError("conv_kernel is zero");
      const auto min_vec = [&sig] {
        std::size_t m = std::numeric_limits<std::size_t>::max();
        for (std::size_t len : sig.row_lengths) {
          if (len > 1) m = std::min(m, len);
        }
        return m;
      }();
      if (min_vec != std::numeric_limits<std::size_t>::max() &&
          spec.conv_kernel > min_vec) {
        throw ArchError("conv_kernel " + std::to_string(spec.conv_kernel) +
                        " larger than shortest vector row " +
                        std::to_string(min_vec));
      }
      break;
    }
    case TemporalUnit::kRnn:
    case TemporalUnit::kLstm:
      check_width(spec.rnn_hidden, "rnn_hidden");
      break;
    case TemporalUnit::kDense:
      break;
  }
}

std::uint64_t step_cost(const ArchSpec& spec, const StateSignature& sig,
                        std::size_t num_actions) {
  validate_spec(spec, sig);
  // One tower's branches and merge stack, as build_tower lays them out.
  std::uint64_t tower = 0;
  std::uint64_t concat_dim = 0;
  for (std::size_t len : sig.row_lengths) {
    std::uint64_t out_dim = spec.scalar_hidden;
    if (len <= 1) {
      tower += spec.scalar_hidden;
    } else {
      switch (spec.temporal) {
        case TemporalUnit::kConv1D: {
          const std::uint64_t out_len = len - spec.conv_kernel + 1;
          out_dim = out_len * spec.conv_filters;
          tower += out_dim * spec.conv_kernel;
          break;
        }
        case TemporalUnit::kRnn:
          // Wx x_t + Wh h_{t-1} per step.
          out_dim = spec.rnn_hidden;
          tower += len * spec.rnn_hidden * (1 + spec.rnn_hidden);
          break;
        case TemporalUnit::kLstm:
          // Four gates over [x_t; h_{t-1}] per step.
          out_dim = spec.rnn_hidden;
          tower += len * 4 * spec.rnn_hidden * (1 + spec.rnn_hidden);
          break;
        case TemporalUnit::kDense:
          tower += len * spec.scalar_hidden;
          break;
      }
    }
    concat_dim += out_dim;
  }
  tower += concat_dim * spec.merge_hidden;
  tower += (spec.merge_layers - 1) * spec.merge_hidden * spec.merge_hidden;
  const std::uint64_t heads = spec.merge_hidden * (num_actions + 1);
  return (spec.shared_trunk ? tower : 2 * tower) + heads;
}

// ---- Tower -----------------------------------------------------------------

std::span<const double> ActorCriticNet::Tower::infer(
    const std::vector<Vec>& rows) {
  if (rows.size() != branches.size()) {
    throw std::invalid_argument("Tower::infer: row count mismatch");
  }
  const std::span<double> merge_input(concat);
  for (std::size_t i = 0; i < branches.size(); ++i) {
    branches[i]->infer_into(
        rows[i], merge_input.subspan(branch_offsets[i], branches[i]->out_dim()),
        infer_scratch);
  }
  std::span<const double> h = concat;
  for (std::size_t i = 0; i < merge.size(); ++i) {
    merge[i]->infer_into(h, infer_rows[i], {});
    h = infer_rows[i];
  }
  if (head) {
    head->infer_into(h, infer_rows.back(), {});
    h = infer_rows.back();
  }
  return h;
}

void ActorCriticNet::Tower::sync_inference_cache() {
  for (auto& b : branches) b->sync_inference_cache();
  for (auto& m : merge) m->sync_inference_cache();
  if (head) head->sync_inference_cache();
}

void ActorCriticNet::Tower::begin_capture(std::size_t batch) {
  for (auto& b : branches) b->begin_capture(batch);
  for (auto& m : merge) m->begin_capture(batch);
  if (head) head->begin_capture(batch);
}

std::span<const double> ActorCriticNet::Tower::capture(
    const std::vector<Vec>& rows, std::size_t row) {
  if (rows.size() != branches.size()) {
    throw std::invalid_argument("Tower::forward_capture: row count mismatch");
  }
  for (std::size_t i = 0; i < branches.size(); ++i) {
    const auto out = branches[i]->capture(rows[i], row);
    std::copy(out.begin(), out.end(),
              concat.begin() + static_cast<std::ptrdiff_t>(branch_offsets[i]));
  }
  std::span<const double> h = concat;
  for (auto& layer : merge) h = layer->capture(h, row);
  if (head) h = head->capture(h, row);
  return h;
}

void ActorCriticNet::Tower::backward_batch(const Mat& dhead) {
  Mat dh = dhead;
  if (head) dh = head->backward_batch(dh);
  for (auto it = merge.rbegin(); it != merge.rend(); ++it) {
    dh = (*it)->backward_batch(dh);
  }
  // Split the concat gradient back into branches. Their input is the
  // observation, not a trainable tensor, so they compute no input
  // gradient.
  for (std::size_t i = 0; i < branches.size(); ++i) {
    const std::size_t begin = branch_offsets[i];
    const std::size_t end =
        i + 1 < branches.size() ? branch_offsets[i + 1] : concat_dim;
    Mat slice(dh.rows(), end - begin);
    for (std::size_t b = 0; b < dh.rows(); ++b) {
      const auto src = dh.row(b);
      std::copy(src.begin() + static_cast<std::ptrdiff_t>(begin),
                src.begin() + static_cast<std::ptrdiff_t>(end),
                slice.row(b).begin());
    }
    branches[i]->backward_params(slice);
  }
}

void ActorCriticNet::Tower::collect_params(std::vector<ParamRef>& out) {
  for (auto& b : branches) {
    for (auto p : b->params()) out.push_back(p);
  }
  for (auto& m : merge) {
    for (auto p : m->params()) out.push_back(p);
  }
  if (head) {
    for (auto p : head->params()) out.push_back(p);
  }
}

// ---- ActorCriticNet ---------------------------------------------------------

ActorCriticNet::Tower ActorCriticNet::build_tower(const StateSignature& sig,
                                                  std::size_t head_dim,
                                                  util::Rng& rng) const {
  Tower tower;
  for (std::size_t len : sig.row_lengths) {
    std::unique_ptr<Layer> branch;
    if (len <= 1) {
      branch = std::make_unique<Dense>(1, spec_.scalar_hidden,
                                       spec_.activation, rng);
    } else {
      switch (spec_.temporal) {
        case TemporalUnit::kConv1D:
          branch = std::make_unique<Conv1D>(len, spec_.conv_filters,
                                            spec_.conv_kernel,
                                            spec_.activation, rng);
          break;
        case TemporalUnit::kRnn:
          branch = std::make_unique<SimpleRnn>(len, spec_.rnn_hidden, rng);
          break;
        case TemporalUnit::kLstm:
          branch = std::make_unique<Lstm>(len, spec_.rnn_hidden, rng);
          break;
        case TemporalUnit::kDense:
          branch = std::make_unique<Dense>(len, spec_.scalar_hidden,
                                           spec_.activation, rng);
          break;
      }
    }
    tower.branch_offsets.push_back(tower.concat_dim);
    tower.concat_dim += branch->out_dim();
    tower.branches.push_back(std::move(branch));
  }
  std::size_t in_dim = tower.concat_dim;
  for (std::size_t i = 0; i < spec_.merge_layers; ++i) {
    tower.merge.push_back(std::make_unique<Dense>(in_dim, spec_.merge_hidden,
                                                  spec_.activation, rng));
    tower.infer_rows.emplace_back(spec_.merge_hidden);
    in_dim = spec_.merge_hidden;
  }
  if (head_dim > 0) {
    tower.head =
        std::make_unique<Dense>(in_dim, head_dim, Activation::kLinear, rng);
    tower.infer_rows.emplace_back(head_dim);
  }
  tower.concat.resize(tower.concat_dim);
  std::size_t scratch = 0;
  for (const auto& branch : tower.branches) {
    scratch = std::max(scratch, branch->infer_scratch());
  }
  tower.infer_scratch.resize(scratch);
  return tower;
}

ActorCriticNet::ActorCriticNet(const ArchSpec& spec, const StateSignature& sig,
                               std::size_t num_actions, util::Rng& rng)
    : spec_(spec), sig_(sig), num_actions_(num_actions),
      shared_(spec.shared_trunk) {
  if (num_actions_ < 2) throw ArchError("need at least two actions");
  validate_spec(spec_, sig_);
  if (shared_) {
    trunk_ = build_tower(sig_, 0, rng);
    actor_head_ = std::make_unique<Dense>(spec_.merge_hidden, num_actions_,
                                          Activation::kLinear, rng);
    critic_head_ =
        std::make_unique<Dense>(spec_.merge_hidden, 1, Activation::kLinear,
                                rng);
    shared_logits_.resize(num_actions_);
  } else {
    actor_ = build_tower(sig_, num_actions_, rng);
    critic_ = build_tower(sig_, 1, rng);
  }
}

void ActorCriticNet::check_state_rows(const std::vector<Vec>& state_rows,
                                      const char* caller) const {
  if (state_rows.size() != sig_.rows()) {
    throw std::invalid_argument(std::string(caller) + ": row count " +
                                std::to_string(state_rows.size()) +
                                " != signature " + std::to_string(sig_.rows()));
  }
  for (std::size_t i = 0; i < state_rows.size(); ++i) {
    const std::size_t expect = std::max<std::size_t>(sig_.row_lengths[i], 1);
    if (state_rows[i].size() != expect) {
      throw std::invalid_argument(std::string(caller) + ": row " +
                                  std::to_string(i) + " length mismatch");
    }
  }
}

ActorCriticNet::Heads ActorCriticNet::infer_heads(
    const std::vector<Vec>& state_rows) {
  check_state_rows(state_rows, "ActorCriticNet::forward_inference");
  if (shared_) {
    const auto trunk_out = trunk_.infer(state_rows);
    double value = 0.0;
    actor_head_->infer_into(trunk_out, shared_logits_, {});
    critic_head_->infer_into(trunk_out, {&value, 1}, {});
    return {shared_logits_, value};
  }
  const auto logits = actor_.infer(state_rows);
  return {logits, critic_.infer(state_rows)[0]};
}

double ActorCriticNet::Heads::finish(std::span<double> probs) const {
  softmax(logits, probs);
  return value;
}

ActorCriticNet::Output ActorCriticNet::Heads::output() const {
  Output out{Vec(logits.begin(), logits.end()), Vec(logits.size()), 0.0};
  out.value = finish(out.probs);
  return out;
}

double ActorCriticNet::infer(const std::vector<Vec>& state_rows,
                             std::span<double> probs) {
  return infer_heads(state_rows).finish(probs);
}

ActorCriticNet::Output ActorCriticNet::forward_inference(
    const std::vector<Vec>& state_rows) {
  return infer_heads(state_rows).output();
}

void ActorCriticNet::sync_inference_cache() {
  if (shared_) {
    trunk_.sync_inference_cache();
    actor_head_->sync_inference_cache();
    critic_head_->sync_inference_cache();
  } else {
    actor_.sync_inference_cache();
    critic_.sync_inference_cache();
  }
}

void ActorCriticNet::begin_batch_capture(std::size_t batch) {
  if (batch == 0) {
    throw std::invalid_argument("ActorCriticNet::begin_batch_capture: 0");
  }
  if (shared_) {
    trunk_.begin_capture(batch);
    actor_head_->begin_capture(batch);
    critic_head_->begin_capture(batch);
  } else {
    actor_.begin_capture(batch);
    critic_.begin_capture(batch);
  }
}

ActorCriticNet::Heads ActorCriticNet::capture_heads(
    const std::vector<Vec>& state_rows, std::size_t row) {
  check_state_rows(state_rows, "ActorCriticNet::forward_capture");
  if (shared_) {
    const auto trunk_out = trunk_.capture(state_rows, row);
    const auto logits = actor_head_->capture(trunk_out, row);
    return {logits, critic_head_->capture(trunk_out, row)[0]};
  }
  const auto logits = actor_.capture(state_rows, row);
  return {logits, critic_.capture(state_rows, row)[0]};
}

double ActorCriticNet::capture(const std::vector<Vec>& state_rows,
                               std::size_t row, std::span<double> probs) {
  return capture_heads(state_rows, row).finish(probs);
}

ActorCriticNet::Output ActorCriticNet::forward_capture(
    const std::vector<Vec>& state_rows, std::size_t row) {
  return capture_heads(state_rows, row).output();
}

void ActorCriticNet::backward_batch(const Mat& dlogits, const Vec& dvalues) {
  if (dlogits.cols() != num_actions_ || dlogits.rows() != dvalues.size()) {
    throw std::invalid_argument("ActorCriticNet::backward_batch: shape");
  }
  Mat dvalue_col(dvalues.size(), 1);
  for (std::size_t b = 0; b < dvalues.size(); ++b) {
    dvalue_col(b, 0) = dvalues[b];
  }
  if (shared_) {
    Mat dtrunk = actor_head_->backward_batch(dlogits);
    const Mat dtrunk_v = critic_head_->backward_batch(dvalue_col);
    for (std::size_t j = 0; j < dtrunk.size(); ++j) {
      dtrunk.data()[j] += dtrunk_v.data()[j];
    }
    trunk_.backward_batch(dtrunk);
  } else {
    actor_.backward_batch(dlogits);
    critic_.backward_batch(dvalue_col);
  }
}

std::vector<ParamRef> ActorCriticNet::params() {
  std::vector<ParamRef> out;
  if (shared_) {
    trunk_.collect_params(out);
    for (auto p : actor_head_->params()) out.push_back(p);
    for (auto p : critic_head_->params()) out.push_back(p);
  } else {
    actor_.collect_params(out);
    critic_.collect_params(out);
  }
  return out;
}

void ActorCriticNet::zero_grad() {
  for (auto& p : params()) p.grad->zero();
}

}  // namespace nada::nn
