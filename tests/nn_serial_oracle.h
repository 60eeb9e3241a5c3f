// Test helper: every nn layer's math one sample at a time, kept as the
// reference oracle for the library's two network passes — capture +
// backward_batch (training) and infer / forward_inference (acting).
//
// Each layer is written the straightforward way, as free functions over
// the ParamRefs its params() lists (same weights, same order) plus a cache
// of the last sample: forward() computes the output and fills the cache,
// backward() consumes the upstream gradient, accumulates into the
// parameters' gradients, and returns the input gradient. net_of() rebuilds
// an ActorCriticNet's towers from its spec over net.params(), so the
// network's concat, split and shared-trunk wiring has an oracle too.
// tests/nn_test.cpp pins an N-row capture + backward_batch, synced and
// unsynced, and infer() against these bit for bit.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nn/arch.h"
#include "nn/layers.h"
#include "nn/mat.h"

namespace nada::test::nn_serial {

using nn::Activation;
using nn::Mat;
using nn::ParamRef;
using nn::Vec;

/// One LSTM time step's gate activations and post-step state.
struct LstmStep {
  Vec i, f, g, o;
  Vec c, h;
};

/// One layer over its params() and the cache of its last forward.
struct Layer {
  enum class Kind { kDense, kConv1D, kRnn, kLstm };

  Kind kind = Kind::kDense;
  /// Dense, Conv1D, Lstm: {W, b}. SimpleRnn: {Wx, Wh, b}.
  std::vector<ParamRef> params;
  Activation act = Activation::kLinear;  ///< Dense and Conv1D only

  Vec x;
  Vec z, y;                    ///< Dense, Conv1D
  std::vector<Vec> h;          ///< SimpleRnn: h_0..h_T (h_0 = zeros)
  std::vector<LstmStep> steps;  ///< Lstm
};

inline Layer dense(std::vector<ParamRef> params, Activation act) {
  return {.kind = Layer::Kind::kDense, .params = std::move(params), .act = act};
}
inline Layer conv1d(std::vector<ParamRef> params, Activation act) {
  return {.kind = Layer::Kind::kConv1D, .params = std::move(params),
          .act = act};
}
inline Layer rnn(std::vector<ParamRef> params) {
  return {.kind = Layer::Kind::kRnn, .params = std::move(params)};
}
inline Layer lstm(std::vector<ParamRef> params) {
  return {.kind = Layer::Kind::kLstm, .params = std::move(params)};
}

// ---- Dense: y = act(W x + b) ------------------------------------------------

inline Vec dense_forward(Layer& l, const Vec& x) {
  const Mat& w = *l.params[0].value;
  const Mat& b = *l.params[1].value;
  l.x = x;
  l.z = w.matvec(x);
  for (std::size_t i = 0; i < l.z.size(); ++i) l.z[i] += b(i, 0);
  l.y.resize(l.z.size());
  for (std::size_t i = 0; i < l.z.size(); ++i) {
    l.y[i] = nn::activate(l.act, l.z[i]);
  }
  return l.y;
}

inline Vec dense_backward(Layer& l, const Vec& dy) {
  Vec dz(dy.size());
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dz[i] = dy[i] * nn::activate_grad(l.act, l.z[i], l.y[i]);
  }
  l.params[0].grad->add_outer(dz, l.x);
  Mat& db = *l.params[1].grad;
  for (std::size_t i = 0; i < dz.size(); ++i) db(i, 0) += dz[i];
  return l.params[0].value->matvec_transposed(dz);
}

// ---- Conv1D: W is filters x kernel, output time-major ----------------------

inline Vec conv1d_forward(Layer& l, const Vec& x) {
  const Mat& w = *l.params[0].value;
  const Mat& b = *l.params[1].value;
  const std::size_t filters = w.rows();
  const std::size_t kernel = w.cols();
  const std::size_t out_len = x.size() - kernel + 1;
  l.x = x;
  l.z.assign(out_len * filters, 0.0);
  for (std::size_t t = 0; t < out_len; ++t) {
    for (std::size_t f = 0; f < filters; ++f) {
      double acc = b(f, 0);
      for (std::size_t k = 0; k < kernel; ++k) acc += w(f, k) * x[t + k];
      l.z[t * filters + f] = acc;
    }
  }
  l.y.resize(l.z.size());
  for (std::size_t i = 0; i < l.z.size(); ++i) {
    l.y[i] = nn::activate(l.act, l.z[i]);
  }
  return l.y;
}

inline Vec conv1d_backward(Layer& l, const Vec& dy) {
  const Mat& w = *l.params[0].value;
  Mat& dw = *l.params[0].grad;
  Mat& db = *l.params[1].grad;
  const std::size_t filters = w.rows();
  const std::size_t kernel = w.cols();
  const std::size_t out_len = l.x.size() - kernel + 1;
  Vec dx(l.x.size(), 0.0);
  for (std::size_t t = 0; t < out_len; ++t) {
    for (std::size_t f = 0; f < filters; ++f) {
      const std::size_t idx = t * filters + f;
      const double dz = dy[idx] * nn::activate_grad(l.act, l.z[idx], l.y[idx]);
      db(f, 0) += dz;
      for (std::size_t k = 0; k < kernel; ++k) {
        dw(f, k) += dz * l.x[t + k];
        dx[t + k] += dz * w(f, k);
      }
    }
  }
  return dx;
}

// ---- SimpleRnn: h_t = tanh(Wx x_t + Wh h_{t-1} + b) -------------------------

inline Vec rnn_forward(Layer& l, const Vec& x) {
  const Mat& wx = *l.params[0].value;
  const Mat& wh = *l.params[1].value;
  const Mat& b = *l.params[2].value;
  const std::size_t hidden = wh.rows();
  l.x = x;
  l.h.assign(x.size() + 1, Vec(hidden, 0.0));
  for (std::size_t t = 0; t < x.size(); ++t) {
    const Vec wh_h = wh.matvec(l.h[t]);
    for (std::size_t i = 0; i < hidden; ++i) {
      l.h[t + 1][i] = std::tanh(wx(i, 0) * x[t] + wh_h[i] + b(i, 0));
    }
  }
  return l.h.back();
}

inline Vec rnn_backward(Layer& l, const Vec& dy) {
  const Mat& wx = *l.params[0].value;
  const Mat& wh = *l.params[1].value;
  Mat& dwx = *l.params[0].grad;
  Mat& dwh = *l.params[1].grad;
  Mat& db = *l.params[2].grad;
  const std::size_t hidden = wh.rows();
  Vec dx(l.x.size(), 0.0);
  Vec dh = dy;  // gradient flowing into h_t
  for (std::size_t t = l.x.size(); t-- > 0;) {
    const Vec& h_next = l.h[t + 1];
    Vec dz(hidden);
    for (std::size_t i = 0; i < hidden; ++i) {
      dz[i] = dh[i] * (1.0 - h_next[i] * h_next[i]);  // tanh'
    }
    for (std::size_t i = 0; i < hidden; ++i) {
      dwx(i, 0) += dz[i] * l.x[t];
      db(i, 0) += dz[i];
      dx[t] += dz[i] * wx(i, 0);
    }
    dwh.add_outer(dz, l.h[t]);
    dh = wh.matvec_transposed(dz);
  }
  return dx;
}

// ---- Lstm: gates [i; f; g; o] = W [x_t; h_{t-1}] + b ------------------------

inline Vec lstm_forward(Layer& l, const Vec& x) {
  const Mat& w = *l.params[0].value;
  const Mat& b = *l.params[1].value;
  const std::size_t hidden = w.rows() / 4;
  l.x = x;
  l.steps.clear();
  Vec h(hidden, 0.0);
  Vec c(hidden, 0.0);
  for (std::size_t t = 0; t < x.size(); ++t) {
    Vec input(1 + hidden);
    input[0] = x[t];
    for (std::size_t i = 0; i < hidden; ++i) input[1 + i] = h[i];
    const Vec z = w.matvec(input);
    LstmStep s;
    s.i.resize(hidden);
    s.f.resize(hidden);
    s.g.resize(hidden);
    s.o.resize(hidden);
    s.c.resize(hidden);
    s.h.resize(hidden);
    for (std::size_t i = 0; i < hidden; ++i) {
      s.i[i] = nn::activate(Activation::kSigmoid, z[i] + b(i, 0));
      s.f[i] = nn::activate(Activation::kSigmoid,
                            z[hidden + i] + b(hidden + i, 0));
      s.g[i] = std::tanh(z[2 * hidden + i] + b(2 * hidden + i, 0));
      s.o[i] = nn::activate(Activation::kSigmoid,
                            z[3 * hidden + i] + b(3 * hidden + i, 0));
      s.c[i] = s.f[i] * c[i] + s.i[i] * s.g[i];
      s.h[i] = s.o[i] * std::tanh(s.c[i]);
    }
    h = s.h;
    c = s.c;
    l.steps.push_back(std::move(s));
  }
  return h;
}

inline Vec lstm_backward(Layer& l, const Vec& dy) {
  const Mat& w = *l.params[0].value;
  Mat& dw = *l.params[0].grad;
  Mat& db = *l.params[1].grad;
  const std::size_t hidden = w.rows() / 4;
  Vec dx(l.x.size(), 0.0);
  Vec dh = dy;
  Vec dc(hidden, 0.0);
  const Vec zeros(hidden, 0.0);
  for (std::size_t t = l.x.size(); t-- > 0;) {
    const LstmStep& s = l.steps[t];
    const Vec& c_prev = t > 0 ? l.steps[t - 1].c : zeros;
    const Vec& h_prev = t > 0 ? l.steps[t - 1].h : zeros;
    Vec dz(4 * hidden);
    for (std::size_t i = 0; i < hidden; ++i) {
      const double tanh_c = std::tanh(s.c[i]);
      const double do_ = dh[i] * tanh_c;
      const double dct = dh[i] * s.o[i] * (1.0 - tanh_c * tanh_c) + dc[i];
      const double di = dct * s.g[i];
      const double df = dct * c_prev[i];
      const double dg = dct * s.i[i];
      dz[i] = di * s.i[i] * (1.0 - s.i[i]);
      dz[hidden + i] = df * s.f[i] * (1.0 - s.f[i]);
      dz[2 * hidden + i] = dg * (1.0 - s.g[i] * s.g[i]);
      dz[3 * hidden + i] = do_ * s.o[i] * (1.0 - s.o[i]);
      dc[i] = dct * s.f[i];
    }
    Vec input(1 + hidden);
    input[0] = l.x[t];
    for (std::size_t i = 0; i < hidden; ++i) input[1 + i] = h_prev[i];
    dw.add_outer(dz, input);
    for (std::size_t i = 0; i < 4 * hidden; ++i) db(i, 0) += dz[i];
    const Vec dinput = w.matvec_transposed(dz);
    dx[t] += dinput[0];
    dh.assign(dinput.begin() + 1, dinput.end());
  }
  return dx;
}

// ---- dispatch ---------------------------------------------------------------

inline Vec forward(Layer& l, const Vec& x) {
  switch (l.kind) {
    case Layer::Kind::kDense: return dense_forward(l, x);
    case Layer::Kind::kConv1D: return conv1d_forward(l, x);
    case Layer::Kind::kRnn: return rnn_forward(l, x);
    case Layer::Kind::kLstm: return lstm_forward(l, x);
  }
  throw std::logic_error("nn_serial::forward: unknown layer kind");
}

inline Vec backward(Layer& l, const Vec& dy) {
  switch (l.kind) {
    case Layer::Kind::kDense: return dense_backward(l, dy);
    case Layer::Kind::kConv1D: return conv1d_backward(l, dy);
    case Layer::Kind::kRnn: return rnn_backward(l, dy);
    case Layer::Kind::kLstm: return lstm_backward(l, dy);
  }
  throw std::logic_error("nn_serial::backward: unknown layer kind");
}

// ---- ActorCriticNet ---------------------------------------------------------

/// A branch per state row, the merge stack, and zero or one linear head.
struct Tower {
  std::vector<Layer> branches;
  std::vector<Layer> merge;
  std::vector<Layer> head;
  std::vector<std::size_t> offsets;  ///< branch starts in the last concat
};

inline Vec forward(Tower& t, const std::vector<Vec>& rows) {
  Vec h;
  t.offsets.clear();
  for (std::size_t i = 0; i < t.branches.size(); ++i) {
    t.offsets.push_back(h.size());
    const Vec out = forward(t.branches[i], rows[i]);
    h.insert(h.end(), out.begin(), out.end());
  }
  for (Layer& m : t.merge) h = forward(m, h);
  for (Layer& head : t.head) h = forward(head, h);
  return h;
}

inline void backward(Tower& t, const Vec& dhead) {
  Vec dh = dhead;
  for (Layer& head : t.head) dh = backward(head, dh);
  for (auto it = t.merge.rbegin(); it != t.merge.rend(); ++it) {
    dh = backward(*it, dh);
  }
  for (std::size_t i = 0; i < t.branches.size(); ++i) {
    const std::size_t end =
        i + 1 < t.branches.size() ? t.offsets[i + 1] : dh.size();
    const Vec slice(dh.begin() + static_cast<std::ptrdiff_t>(t.offsets[i]),
                    dh.begin() + static_cast<std::ptrdiff_t>(end));
    (void)backward(t.branches[i], slice);
  }
}

/// Separate: actor and critic are full towers. Shared: trunk feeds both
/// linear heads.
struct Net {
  bool shared = false;
  Tower actor, critic, trunk;
  std::vector<Layer> heads;  ///< shared only: {actor head, critic head}
};

/// Rebuilds `net`'s towers from its spec and `sig` over net.params(), in
/// the order ActorCriticNet lists them. Throws if the parameter list does
/// not match the spec.
inline Net net_of(nn::ActorCriticNet& net, const nn::StateSignature& sig) {
  const nn::ArchSpec& spec = net.spec();
  const std::vector<ParamRef> all = net.params();
  std::size_t next = 0;
  auto take = [&](std::size_t n) {
    if (next + n > all.size()) {
      throw std::logic_error("nn_serial::net_of: too few parameters");
    }
    std::vector<ParamRef> out(all.begin() + static_cast<std::ptrdiff_t>(next),
                              all.begin() +
                                  static_cast<std::ptrdiff_t>(next + n));
    next += n;
    return out;
  };
  auto tower = [&](bool with_head) {
    Tower t;
    for (std::size_t len : sig.row_lengths) {
      if (len <= 1) {
        t.branches.push_back(dense(take(2), spec.activation));
        continue;
      }
      switch (spec.temporal) {
        case nn::TemporalUnit::kConv1D:
          t.branches.push_back(conv1d(take(2), spec.activation));
          break;
        case nn::TemporalUnit::kRnn:
          t.branches.push_back(rnn(take(3)));
          break;
        case nn::TemporalUnit::kLstm:
          t.branches.push_back(lstm(take(2)));
          break;
        case nn::TemporalUnit::kDense:
          t.branches.push_back(dense(take(2), spec.activation));
          break;
      }
    }
    for (std::size_t m = 0; m < spec.merge_layers; ++m) {
      t.merge.push_back(dense(take(2), spec.activation));
    }
    if (with_head) t.head.push_back(dense(take(2), Activation::kLinear));
    return t;
  };
  Net out;
  out.shared = spec.shared_trunk;
  if (out.shared) {
    out.trunk = tower(false);
    out.heads.push_back(dense(take(2), Activation::kLinear));
    out.heads.push_back(dense(take(2), Activation::kLinear));
  } else {
    out.actor = tower(true);
    out.critic = tower(true);
  }
  if (next != all.size()) {
    throw std::logic_error("nn_serial::net_of: parameters left over");
  }
  return out;
}

inline nn::ActorCriticNet::Output forward(Net& n,
                                          const std::vector<Vec>& rows) {
  nn::ActorCriticNet::Output out;
  if (n.shared) {
    const Vec trunk_out = forward(n.trunk, rows);
    out.logits = forward(n.heads[0], trunk_out);
    out.value = forward(n.heads[1], trunk_out)[0];
  } else {
    out.logits = forward(n.actor, rows);
    out.value = forward(n.critic, rows)[0];
  }
  out.probs = nn::softmax(out.logits);
  return out;
}

inline void backward(Net& n, const Vec& dlogits, double dvalue) {
  const Vec dvalue_vec{dvalue};
  if (n.shared) {
    Vec dtrunk = backward(n.heads[0], dlogits);
    const Vec dtrunk_v = backward(n.heads[1], dvalue_vec);
    for (std::size_t i = 0; i < dtrunk.size(); ++i) dtrunk[i] += dtrunk_v[i];
    backward(n.trunk, dtrunk);
  } else {
    backward(n.actor, dlogits);
    backward(n.critic, dvalue_vec);
  }
}

}  // namespace nada::test::nn_serial
