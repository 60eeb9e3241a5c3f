// Tests for the neural-network substrate. The crucial ones are numerical
// gradient checks — every layer's analytic backward pass is compared with
// finite differences of a scalar loss — and the bitwise pins of the
// capture + backward_batch pass and infer() against the single-sample
// oracle in nn_serial_oracle.h.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>

#include "nn/arch.h"
#include "nn/classifier.h"
#include "nn/layers.h"
#include "nn/mat.h"
#include "nn/optimizer.h"
#include "nn_serial_oracle.h"
#include "util/rng.h"
#include "util/strings.h"

namespace nada::nn {
namespace {

// ---- Mat --------------------------------------------------------------------

TEST(Mat, MatvecKnownValues) {
  Mat m(2, 3);
  // [[1,2,3],[4,5,6]] * [1,1,1] = [6,15]
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = v++;
  }
  const Vec y = m.matvec(std::vector<double>{1, 1, 1});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Mat, MatvecTransposedKnownValues) {
  Mat m(2, 3);
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = v++;
  }
  const Vec y = m.matvec_transposed(std::vector<double>{1, 1});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_DOUBLE_EQ(y[2], 9.0);
}

TEST(Mat, AddOuterKnownValues) {
  Mat m(2, 2);
  m.add_outer(std::vector<double>{1, 2}, std::vector<double>{3, 4}, 2.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 12.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 16.0);
}

TEST(Mat, ShapeMismatchThrows) {
  Mat m(2, 3);
  EXPECT_THROW(m.matvec(std::vector<double>{1, 1}), std::invalid_argument);
  EXPECT_THROW(m.matvec_transposed(std::vector<double>{1, 1, 1}),
               std::invalid_argument);
  Mat other(3, 2);
  EXPECT_THROW(m.add_scaled(other, 1.0), std::invalid_argument);
}

TEST(Mat, ZeroDimensionThrows) {
  EXPECT_THROW(Mat(0, 3), std::invalid_argument);
  EXPECT_THROW(Mat(3, 0), std::invalid_argument);
}

TEST(VecOps, SoftmaxSumsToOne) {
  const Vec probs = softmax(std::vector<double>{1.0, 2.0, 3.0});
  double total = 0.0;
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(probs[2], probs[1]);
  EXPECT_GT(probs[1], probs[0]);
}

TEST(VecOps, SoftmaxHandlesLargeLogits) {
  const Vec probs = softmax(std::vector<double>{1000.0, 1000.0});
  EXPECT_NEAR(probs[0], 0.5, 1e-12);
  EXPECT_NEAR(probs[1], 0.5, 1e-12);
}

TEST(VecOps, EntropyUniformIsLogN) {
  const Vec probs(4, 0.25);
  EXPECT_NEAR(entropy(probs), std::log(4.0), 1e-12);
  const Vec onehot = {1.0, 0.0, 0.0};
  EXPECT_NEAR(entropy(onehot), 0.0, 1e-9);
}

TEST(VecOps, ResampleLinearEndpoints) {
  const Vec xs = {0.0, 1.0, 2.0, 3.0};
  const Vec out = resample_linear(xs, 7);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_DOUBLE_EQ(out.front(), 0.0);
  EXPECT_DOUBLE_EQ(out.back(), 3.0);
  EXPECT_NEAR(out[3], 1.5, 1e-12);
}

TEST(VecOps, ResampleFromSingleValue) {
  const Vec out = resample_linear(std::vector<double>{5.0}, 4);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 5.0);
}

// ---- gradient checks ----------------------------------------------------------

// Scalar loss L = sum(w_out .* layer(x)); checks a one-row capture's dL/dx
// and dL/dparams against central finite differences of infer().
void check_layer_gradients(Layer& layer, const Vec& x, double tol = 1e-5) {
  util::Rng rng(777);
  Vec w_out(layer.out_dim());
  for (double& w : w_out) w = rng.uniform(-1.0, 1.0);
  Mat dy(1, w_out.size());
  std::copy(w_out.begin(), w_out.end(), dy.row(0).begin());

  auto loss = [&](const Vec& input) { return dot(layer.infer(input), w_out); };

  // Analytic gradients: one captured row, one backward_batch.
  layer.zero_grad();
  layer.begin_capture(1);
  (void)layer.forward_capture(x, 0);
  const Mat dx = layer.backward_batch(dy);

  // Input gradient check.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Vec xp = x;
    Vec xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (loss(xp) - loss(xm)) / (2 * eps);
    EXPECT_NEAR(dx(0, i), numeric, tol) << "input grad " << i;
  }

  // Parameter gradient check.
  for (auto& p : layer.params()) {
    auto& values = p.value->data();
    auto& grads = p.grad->data();
    // Probe a subset of parameters to keep the test fast.
    const std::size_t stride = std::max<std::size_t>(values.size() / 25, 1);
    for (std::size_t j = 0; j < values.size(); j += stride) {
      const double saved = values[j];
      values[j] = saved + eps;
      const double up = loss(x);
      values[j] = saved - eps;
      const double down = loss(x);
      values[j] = saved;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grads[j], numeric, tol) << "param grad " << j;
    }
  }
}

TEST(GradCheck, DenseLinear) {
  util::Rng rng(1);
  Dense layer(5, 4, Activation::kLinear, rng);
  check_layer_gradients(layer, {0.5, -0.3, 1.2, 0.0, -0.9});
}

TEST(GradCheck, DenseTanh) {
  util::Rng rng(2);
  Dense layer(4, 6, Activation::kTanh, rng);
  check_layer_gradients(layer, {0.2, -0.6, 0.9, 0.1});
}

TEST(GradCheck, DenseSigmoid) {
  util::Rng rng(3);
  Dense layer(3, 3, Activation::kSigmoid, rng);
  check_layer_gradients(layer, {1.0, -1.0, 0.3});
}

TEST(GradCheck, DenseLeakyRelu) {
  util::Rng rng(4);
  Dense layer(4, 5, Activation::kLeakyRelu, rng);
  // Inputs chosen so pre-activations stay away from the kink.
  check_layer_gradients(layer, {0.7, -0.8, 0.45, 1.3}, 1e-4);
}

TEST(GradCheck, DenseElu) {
  util::Rng rng(5);
  Dense layer(4, 4, Activation::kElu, rng);
  check_layer_gradients(layer, {0.7, -0.4, 0.2, -1.1}, 1e-4);
}

TEST(GradCheck, Conv1D) {
  util::Rng rng(6);
  Conv1D layer(8, 3, 4, Activation::kTanh, rng);
  check_layer_gradients(layer, {0.1, -0.2, 0.3, 0.5, -0.6, 0.4, 0.0, 0.9});
}

TEST(GradCheck, Conv1DKernelOne) {
  util::Rng rng(7);
  Conv1D layer(5, 2, 1, Activation::kLinear, rng);
  check_layer_gradients(layer, {0.3, 0.1, -0.4, 0.8, -0.2});
}

TEST(GradCheck, Conv1DFullWidthKernel) {
  util::Rng rng(8);
  Conv1D layer(6, 4, 6, Activation::kTanh, rng);
  check_layer_gradients(layer, {0.2, -0.1, 0.4, 0.3, -0.5, 0.6});
}

TEST(GradCheck, SimpleRnn) {
  util::Rng rng(9);
  SimpleRnn layer(6, 5, rng);
  check_layer_gradients(layer, {0.5, -0.3, 0.8, 0.2, -0.7, 0.1}, 1e-4);
}

TEST(GradCheck, Lstm) {
  util::Rng rng(10);
  Lstm layer(5, 4, rng);
  check_layer_gradients(layer, {0.4, -0.6, 0.9, -0.1, 0.3}, 1e-4);
}

// ---- batched kernels and batched layer passes --------------------------------

TEST(Mat, MatmulMatchesMatvecTransposedPerRow) {
  util::Rng rng(42);
  Mat a(3, 4);
  Mat b(4, 6);
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.uniform(-1.0, 1.0);
  const Mat c = matmul(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const Vec expect = b.matvec_transposed(a.row(i));
    for (std::size_t j = 0; j < b.cols(); ++j) {
      EXPECT_EQ(c(i, j), expect[j]);  // bitwise
    }
  }
}

TEST(Mat, AddMatmulTnMatchesSequentialAddOuter) {
  util::Rng rng(43);
  Mat a(5, 3);
  Mat b(5, 4);
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.uniform(-1.0, 1.0);
  Mat sequential(3, 4, 0.5);
  for (std::size_t n = 0; n < a.rows(); ++n) {
    sequential.add_outer(a.row(n), b.row(n));
  }
  Mat batched(3, 4, 0.5);
  add_matmul_tn(batched, a, b);
  EXPECT_EQ(sequential.data(), batched.data());  // bitwise
}

TEST(Mat, BatchedKernelShapeMismatchThrows) {
  Mat a(2, 3);
  Mat b(2, 4);
  EXPECT_THROW((void)matmul(a, b), std::invalid_argument);
  Mat c(3, 3);
  EXPECT_THROW(add_matmul_tn(c, a, b), std::invalid_argument);
}

// The kernels reject bad shapes with stable, kernel-naming messages; these
// are the diagnostics operators see when a capture cache and a gradient
// matrix drift apart, so the text itself is pinned.
TEST(Mat, BatchedKernelMismatchMessages) {
  auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no throw)";
  };
  Mat a(2, 3);
  Mat b(2, 4);
  Mat c(3, 3);
  EXPECT_EQ(message_of([&] { (void)matmul(a, b); }),
            "matmul: inner dimension mismatch");
  EXPECT_EQ(message_of([&] { add_matmul_tn(c, a, b); }),
            "add_matmul_tn: shape mismatch");
  // Zero-dimension matrices are unrepresentable, so "0-row" inputs are
  // rejected at construction — the kernels never see them.
  EXPECT_EQ(message_of([&] { Mat m(0, 3); }), "Mat: zero dimension");
  EXPECT_EQ(message_of([&] { Mat m(3, 0); }), "Mat: zero dimension");
}

/// Fills a matrix with a deterministic pseudo-random pattern.
Mat random_mat(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Mat m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

// Tail-vs-tiled pins: the kernels tile four rows (matmul) or four samples
// (add_matmul_tn) per sweep and fall back to a remainder loop for the
// rest. A row's result must not depend on which path computed it, so every
// row count around the tile boundary is compared bitwise against the
// serial single-sample reference — and against the same rows computed
// inside a full tile via a padded operand.
TEST(Mat, MatmulTailRowsMatchTiledBitwise) {
  const Mat b = random_mat(3, 4, 91);
  for (const std::size_t rows : {1u, 2u, 3u, 5u, 6u, 7u, 9u}) {
    const Mat a = random_mat(rows, 3, 200 + rows);
    const Mat c = matmul(a, b);
    for (std::size_t i = 0; i < rows; ++i) {
      const Vec expect = b.matvec_transposed(a.row(i));
      for (std::size_t j = 0; j < b.cols(); ++j) {
        EXPECT_EQ(c(i, j), expect[j]) << "rows=" << rows << " i=" << i;
      }
    }
    const std::size_t padded_rows = ((rows + 3) / 4) * 4;
    Mat padded(padded_rows, 3);
    std::copy(a.data().begin(), a.data().end(), padded.data().begin());
    const Mat c_padded = matmul(padded, b);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        EXPECT_EQ(c(i, j), c_padded(i, j)) << "rows=" << rows << " i=" << i;
      }
    }
  }
}

TEST(Mat, AddMatmulTnTailSamplesMatchSerialBitwise) {
  // The n-dimension (samples) is the accumulation order here, so the pin is
  // against the serial add_outer chain at every count around the tile edge.
  for (const std::size_t samples : {1u, 2u, 3u, 5u, 6u, 7u, 9u}) {
    const Mat a = random_mat(samples, 3, 300 + samples);
    const Mat b = random_mat(samples, 4, 400 + samples);
    Mat serial(3, 4, 0.25);
    for (std::size_t n = 0; n < samples; ++n) {
      serial.add_outer(a.row(n), b.row(n));
    }
    Mat batched(3, 4, 0.25);
    add_matmul_tn(batched, a, b);
    EXPECT_EQ(serial.data(), batched.data()) << "samples=" << samples;
  }
}

TEST(Mat, BatchedKernelsDegenerateShapes) {
  // 1-col outputs, 1-row inputs, and inner dimension 1: every degenerate
  // edge still matches the serial reference bitwise.
  const Mat a1 = random_mat(1, 4, 500);   // single sample
  const Mat bcol = random_mat(4, 1, 502);  // 1-col B
  const Mat c_col = matmul(a1, bcol);
  ASSERT_EQ(c_col.cols(), 1u);
  EXPECT_EQ(c_col(0, 0), bcol.matvec_transposed(a1.row(0))[0]);

  const Mat ak1 = random_mat(5, 1, 503);  // inner dimension 1
  const Mat bk1 = random_mat(1, 3, 504);
  const Mat c_k1 = matmul(ak1, bk1);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(c_k1(i, j), bk1.matvec_transposed(ak1.row(i))[j]);
    }
  }

  Mat acc(1, 1, -0.5);  // 1x1 accumulator
  const Mat at = random_mat(5, 1, 505);
  const Mat bt = random_mat(5, 1, 506);
  Mat acc_serial(1, 1, -0.5);
  for (std::size_t n = 0; n < 5; ++n) {
    acc_serial.add_outer(at.row(n), bt.row(n));
  }
  add_matmul_tn(acc, at, bt);
  EXPECT_EQ(acc(0, 0), acc_serial(0, 0));
}

/// Layers built from the same seed have identical weights; run B samples
/// through one with the single-sample oracle, through another as one B-row
/// capture + backward_batch, and through a third as a capture +
/// backward_params, and demand bitwise-equal outputs, parameter gradients,
/// and input gradients — with the capturing layers unsynced (exact path)
/// and synced (fast path). A synced layer's infer() must also match the
/// oracle on every row, and again after a weight update and a re-sync.
template <typename MakeLayer, typename MakeOracle>
void check_capture_matches_oracle(MakeLayer make, MakeOracle oracle_of,
                                  std::size_t in_dim, std::size_t batch) {
  for (const bool synced : {false, true}) {
    SCOPED_TRACE(synced ? "synced" : "unsynced");
    util::Rng rng_serial(2024);
    util::Rng rng_capture(2024);
    util::Rng rng_params(2024);
    auto serial = make(rng_serial);
    auto captured = make(rng_capture);
    auto params_only = make(rng_params);
    if (synced) {
      captured->sync_inference_cache();
      params_only->sync_inference_cache();
    }
    test::nn_serial::Layer oracle = oracle_of(serial->params());

    util::Rng data_rng(7);
    Mat x(batch, in_dim);
    for (double& v : x.data()) v = data_rng.uniform(-1.0, 1.0);
    Mat dy(batch, serial->out_dim());
    for (double& v : dy.data()) v = data_rng.uniform(-1.0, 1.0);

    // infer() must agree with the oracle's forward.
    {
      const Vec x0(x.row(0).begin(), x.row(0).end());
      EXPECT_EQ(captured->infer(x0), test::nn_serial::forward(oracle, x0));
    }

    serial->zero_grad();
    captured->zero_grad();
    Mat y_serial(batch, serial->out_dim());
    Mat dx_serial(batch, in_dim);
    for (std::size_t nidx = 0; nidx < batch; ++nidx) {
      const Vec xn(x.row(nidx).begin(), x.row(nidx).end());
      const Vec yn = test::nn_serial::forward(oracle, xn);
      const Vec dyn(dy.row(nidx).begin(), dy.row(nidx).end());
      const Vec dxn = test::nn_serial::backward(oracle, dyn);
      std::copy(yn.begin(), yn.end(), y_serial.row(nidx).begin());
      std::copy(dxn.begin(), dxn.end(), dx_serial.row(nidx).begin());
    }
    captured->begin_capture(batch);
    Mat y_capture(batch, captured->out_dim());
    for (std::size_t nidx = 0; nidx < batch; ++nidx) {
      const Vec xn(x.row(nidx).begin(), x.row(nidx).end());
      const Vec yn = captured->forward_capture(xn, nidx);
      std::copy(yn.begin(), yn.end(), y_capture.row(nidx).begin());
    }
    const Mat dx_capture = captured->backward_batch(dy);
    params_only->zero_grad();
    params_only->begin_capture(batch);
    for (std::size_t nidx = 0; nidx < batch; ++nidx) {
      const Vec xn(x.row(nidx).begin(), x.row(nidx).end());
      (void)params_only->forward_capture(xn, nidx);
    }
    params_only->backward_params(dy);

    EXPECT_EQ(y_serial.data(), y_capture.data());
    EXPECT_EQ(dx_serial.data(), dx_capture.data());
    auto ps = serial->params();
    auto pc = captured->params();
    auto pp = params_only->params();
    ASSERT_EQ(ps.size(), pc.size());
    ASSERT_EQ(ps.size(), pp.size());
    for (std::size_t p = 0; p < ps.size(); ++p) {
      EXPECT_EQ(ps[p].grad->data(), pc[p].grad->data()) << "param " << p;
      EXPECT_EQ(ps[p].grad->data(), pp[p].grad->data()) << "param " << p;
    }
    for (std::size_t nidx = 0; nidx < batch; ++nidx) {
      const Vec xn(x.row(nidx).begin(), x.row(nidx).end());
      const auto yr = y_serial.row(nidx);
      EXPECT_EQ(captured->infer(xn), Vec(yr.begin(), yr.end()))
          << "row " << nidx;
    }

    // Move the weights, re-sync in place, and infer again.
    for (std::size_t p = 0; p < ps.size(); ++p) {
      ps[p].value->add_scaled(*ps[p].grad, -0.5);
      pc[p].value->add_scaled(*pc[p].grad, -0.5);
    }
    if (synced) captured->sync_inference_cache();
    const Vec x1(x.row(batch - 1).begin(), x.row(batch - 1).end());
    EXPECT_EQ(captured->infer(x1), test::nn_serial::forward(oracle, x1));
  }
}

TEST(BatchedLayers, DenseMatchesSingle) {
  check_capture_matches_oracle(
      [](util::Rng& rng) {
        return std::make_unique<Dense>(5, 4, Activation::kTanh, rng);
      },
      [](std::vector<ParamRef> ps) {
        return test::nn_serial::dense(std::move(ps), Activation::kTanh);
      },
      5, 6);
}

TEST(BatchedLayers, DenseReluMatchesSingle) {
  check_capture_matches_oracle(
      [](util::Rng& rng) {
        return std::make_unique<Dense>(6, 3, Activation::kRelu, rng);
      },
      [](std::vector<ParamRef> ps) {
        return test::nn_serial::dense(std::move(ps), Activation::kRelu);
      },
      6, 4);
}

TEST(BatchedLayers, Conv1DMatchesSingle) {
  check_capture_matches_oracle(
      [](util::Rng& rng) {
        return std::make_unique<Conv1D>(8, 3, 4, Activation::kRelu, rng);
      },
      [](std::vector<ParamRef> ps) {
        return test::nn_serial::conv1d(std::move(ps), Activation::kRelu);
      },
      8, 5);
}

TEST(BatchedLayers, SimpleRnnMatchesSingle) {
  check_capture_matches_oracle(
      [](util::Rng& rng) { return std::make_unique<SimpleRnn>(8, 4, rng); },
      [](std::vector<ParamRef> ps) {
        return test::nn_serial::rnn(std::move(ps));
      },
      8, 5);
}

TEST(BatchedLayers, LstmMatchesSingle) {
  check_capture_matches_oracle(
      [](util::Rng& rng) { return std::make_unique<Lstm>(8, 4, rng); },
      [](std::vector<ParamRef> ps) {
        return test::nn_serial::lstm(std::move(ps));
      },
      8, 5);
}

// Every kernel width the generator draws from or that hits a distinct
// column tail of the dW product (1, 4, 5, 6), narrow to wide filter banks,
// every activation. At seq_len 10 the captures hold batch * out_len rows;
// batches 5-7 leave 1-3-row tails of add_matmul_tn's four-row tiles.
TEST(BatchedLayers, Conv1DMatchesSingleAcrossShapesAndActivations) {
  constexpr std::size_t kSeqLen = 10;
  const Activation activations[] = {
      Activation::kLinear, Activation::kRelu,    Activation::kLeakyRelu,
      Activation::kTanh,   Activation::kSigmoid, Activation::kElu};
  for (const std::size_t kernel : {1u, 4u, 5u, 6u}) {
    for (const std::size_t filters : {3u, 8u, 32u}) {
      for (const Activation act : activations) {
        for (const std::size_t batch : {5u, 6u, 7u}) {
          SCOPED_TRACE("kernel " + std::to_string(kernel) + " filters " +
                       std::to_string(filters) + " " + activation_name(act) +
                       " batch " + std::to_string(batch));
          check_capture_matches_oracle(
              [&](util::Rng& rng) {
                return std::make_unique<Conv1D>(kSeqLen, filters, kernel, act,
                                                rng);
              },
              [&](std::vector<ParamRef> ps) {
                return test::nn_serial::conv1d(std::move(ps), act);
              },
              kSeqLen, batch);
        }
      }
    }
  }
}

// Hidden 5 puts the gate sweeps (4H = 20 columns) and the W^T dz sweeps
// (1 + H = 6) on vector-block tails; hidden 16 fills whole 16-column
// blocks.
TEST(BatchedLayers, RecurrentLayersMatchSingleAcrossHiddenSizes) {
  for (const std::size_t hidden : {5u, 16u}) {
    SCOPED_TRACE("hidden " + std::to_string(hidden));
    check_capture_matches_oracle(
        [&](util::Rng& rng) {
          return std::make_unique<SimpleRnn>(8, hidden, rng);
        },
        [](std::vector<ParamRef> ps) {
          return test::nn_serial::rnn(std::move(ps));
        },
        8, 7);
    check_capture_matches_oracle(
        [&](util::Rng& rng) { return std::make_unique<Lstm>(8, hidden, rng); },
        [](std::vector<ParamRef> ps) {
          return test::nn_serial::lstm(std::move(ps));
        },
        8, 7);
  }
}

TEST(Conv1D, RejectsBadKernel) {
  util::Rng rng(11);
  EXPECT_THROW(Conv1D(4, 2, 5, Activation::kRelu, rng),
               std::invalid_argument);
  EXPECT_THROW(Conv1D(4, 2, 0, Activation::kRelu, rng),
               std::invalid_argument);
}

TEST(Layers, ForwardRejectsWrongSize) {
  util::Rng rng(12);
  Dense dense(3, 2, Activation::kRelu, rng);
  dense.begin_capture(1);
  EXPECT_THROW(dense.forward_capture({1.0, 2.0}, 0), std::invalid_argument);
  EXPECT_THROW((void)dense.infer({1.0, 2.0}), std::invalid_argument);
  SimpleRnn rnn(4, 3, rng);
  rnn.begin_capture(1);
  EXPECT_THROW(rnn.forward_capture({1.0}, 0), std::invalid_argument);
  EXPECT_THROW((void)rnn.infer({1.0}), std::invalid_argument);
  Lstm lstm(4, 3, rng);
  lstm.begin_capture(1);
  EXPECT_THROW(lstm.forward_capture({1.0}, 0), std::invalid_argument);
  EXPECT_THROW((void)lstm.infer({1.0}), std::invalid_argument);
}

// forward_capture writes cache row `row`: outside the batch of the last
// begin_capture (or before any) it must throw, not write out of bounds.
TEST(Layers, ForwardCaptureRejectsRowOutsideBatch) {
  util::Rng rng(25);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Dense>(3, 2, Activation::kRelu, rng));
  layers.push_back(std::make_unique<Conv1D>(6, 2, 3, Activation::kRelu, rng));
  layers.push_back(std::make_unique<SimpleRnn>(6, 3, rng));
  layers.push_back(std::make_unique<Lstm>(6, 3, rng));
  for (auto& layer : layers) {
    const Vec x(layer->in_dim(), 0.5);
    EXPECT_THROW((void)layer->forward_capture(x, 0), std::out_of_range);
    layer->begin_capture(2);
    EXPECT_NO_THROW((void)layer->forward_capture(x, 1));
    EXPECT_THROW((void)layer->forward_capture(x, 2), std::out_of_range);
  }
}

// ---- optimizers -----------------------------------------------------------------

TEST(Adam, MinimizesQuadratic) {
  // One 1x1 "weight" minimizing (w - 3)^2.
  Mat w(1, 1, 0.0);
  Mat g(1, 1, 0.0);
  Adam adam(0.1);
  for (int i = 0; i < 300; ++i) {
    g(0, 0) = 2.0 * (w(0, 0) - 3.0);
    adam.step({{&w, &g}});
  }
  EXPECT_NEAR(w(0, 0), 3.0, 1e-2);
}

TEST(Adam, ZeroesGradientsAfterStep) {
  Mat w(2, 2, 1.0);
  Mat g(2, 2, 5.0);
  Adam adam(0.01);
  adam.step({{&w, &g}});
  for (double v : g.data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Optimizer, ClipGlobalNormScales) {
  Mat w(1, 2);
  Mat g(1, 2);
  g(0, 0) = 3.0;
  g(0, 1) = 4.0;  // norm 5
  std::vector<ParamRef> params = {{&w, &g}};
  clip_global_norm(params, 1.0);
  EXPECT_NEAR(g(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(g(0, 1), 0.8, 1e-12);
  // Below the cap: unchanged.
  clip_global_norm(params, 10.0);
  EXPECT_NEAR(g(0, 0), 0.6, 1e-12);
}

// ---- ArchSpec / ActorCriticNet ---------------------------------------------------

StateSignature pensieve_signature() {
  // last_quality, buffer (scalars); throughput, download (8-vectors);
  // next sizes (6-vector); chunks left (scalar).
  StateSignature sig;
  sig.row_lengths = {1, 1, 8, 8, 6, 1};
  return sig;
}

TEST(ArchSpec, PensieveDefaultValid) {
  EXPECT_NO_THROW(validate_spec(ArchSpec::pensieve(), pensieve_signature()));
}

TEST(ArchSpec, KernelTooLargeRejected) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.conv_kernel = 7;  // shortest vector row is 6
  EXPECT_THROW(validate_spec(spec, pensieve_signature()), ArchError);
}

TEST(ArchSpec, ZeroWidthRejected) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.merge_hidden = 0;
  EXPECT_THROW(validate_spec(spec, pensieve_signature()), ArchError);
}

TEST(ArchSpec, OversizedWidthRejected) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.merge_hidden = 4096;
  EXPECT_THROW(validate_spec(spec, pensieve_signature()), ArchError);
}

TEST(ArchSpec, TooManyMergeLayersRejected) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.merge_layers = 5;
  EXPECT_THROW(validate_spec(spec, pensieve_signature()), ArchError);
}

TEST(ArchSpec, ZeroRnnHiddenRejected) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.temporal = TemporalUnit::kRnn;
  spec.rnn_hidden = 0;
  EXPECT_THROW(validate_spec(spec, pensieve_signature()), ArchError);
}

TEST(ArchSpec, DescribeMentionsUnit) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.temporal = TemporalUnit::kLstm;
  EXPECT_NE(spec.describe().find("lstm"), std::string::npos);
}

class NetVariantTest
    : public ::testing::TestWithParam<std::tuple<TemporalUnit, bool>> {};

TEST_P(NetVariantTest, ForwardBackwardRuns) {
  const auto [unit, shared] = GetParam();
  ArchSpec spec = ArchSpec::pensieve();
  spec.temporal = unit;
  spec.shared_trunk = shared;
  spec.conv_filters = 8;
  spec.rnn_hidden = 8;
  spec.scalar_hidden = 8;
  spec.merge_hidden = 8;
  util::Rng rng(13);
  ActorCriticNet net(spec, pensieve_signature(), 6, rng);

  std::vector<Vec> rows = {{0.3},
                           {0.9},
                           {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
                           {0.2, 0.2, 0.3, 0.1, 0.4, 0.2, 0.3, 0.2},
                           {0.1, 0.2, 0.4, 0.7, 1.1, 1.7},
                           {0.5}};
  net.begin_batch_capture(1);
  const auto out = net.forward_capture(rows, 0);
  ASSERT_EQ(out.probs.size(), 6u);
  double total = 0.0;
  for (double p : out.probs) {
    EXPECT_GT(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_TRUE(std::isfinite(out.value));

  Mat dlogits(1, 6, 0.1);
  dlogits(0, 2) = -0.5;
  EXPECT_NO_THROW(net.backward_batch(dlogits, {0.7}));
  // Gradients should be nonzero somewhere.
  double grad_norm = 0.0;
  for (auto& p : net.params()) {
    for (double g : p.grad->data()) grad_norm += g * g;
  }
  EXPECT_GT(grad_norm, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, NetVariantTest,
    ::testing::Combine(::testing::Values(TemporalUnit::kConv1D,
                                         TemporalUnit::kRnn,
                                         TemporalUnit::kLstm,
                                         TemporalUnit::kDense),
                       ::testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<TemporalUnit, bool>>& info) {
      return std::string(temporal_unit_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_shared" : "_separate");
    });

class NetBatchedVariantTest
    : public ::testing::TestWithParam<std::tuple<TemporalUnit, bool>> {};

TEST_P(NetBatchedVariantTest, BatchedMatchesSingleBitwise) {
  const auto [unit, shared] = GetParam();
  ArchSpec spec = ArchSpec::pensieve();
  spec.temporal = unit;
  spec.shared_trunk = shared;
  spec.conv_filters = 8;
  spec.rnn_hidden = 8;
  spec.scalar_hidden = 8;
  spec.merge_hidden = 8;
  util::Rng rng_single(99);
  util::Rng rng_unsynced(99);
  util::Rng rng_capture(99);
  ActorCriticNet single(spec, pensieve_signature(), 6, rng_single);
  ActorCriticNet unsynced(spec, pensieve_signature(), 6, rng_unsynced);
  ActorCriticNet captured(spec, pensieve_signature(), 6, rng_capture);
  captured.sync_inference_cache();  // capture runs on the fast path

  util::Rng data_rng(3);
  const std::size_t batch = 5;
  std::vector<std::vector<Vec>> samples(batch);
  for (auto& sample : samples) {
    for (std::size_t len : pensieve_signature().row_lengths) {
      Vec row(std::max<std::size_t>(len, 1));
      for (double& v : row) v = data_rng.uniform(-1.0, 1.0);
      sample.push_back(std::move(row));
    }
  }
  Mat dlogits(batch, 6);
  for (double& v : dlogits.data()) v = data_rng.uniform(-0.5, 0.5);
  Vec dvalues(batch);
  for (double& v : dvalues) v = data_rng.uniform(-0.5, 0.5);

  // Single path: the serial oracle over `single`'s parameters, interleaved
  // forward/backward per sample.
  single.zero_grad();
  test::nn_serial::Net oracle =
      test::nn_serial::net_of(single, pensieve_signature());
  std::vector<ActorCriticNet::Output> single_outs;
  for (std::size_t b = 0; b < batch; ++b) {
    single_outs.push_back(test::nn_serial::forward(oracle, samples[b]));
    const Vec db(dlogits.row(b).begin(), dlogits.row(b).end());
    test::nn_serial::backward(oracle, db, dvalues[b]);
  }

  // Capture path, on the exact path (unsynced) and the fast path (synced):
  // forward one row at a time (as the rollout does), then a single
  // backward over the captured caches.
  auto run_capture = [&](ActorCriticNet& net) {
    net.zero_grad();
    net.begin_batch_capture(batch);
    std::vector<ActorCriticNet::Output> outs;
    for (std::size_t b = 0; b < batch; ++b) {
      outs.push_back(net.forward_capture(samples[b], b));
    }
    net.backward_batch(dlogits, dvalues);
    return outs;
  };
  const auto unsynced_outs = run_capture(unsynced);
  const auto capture_outs = run_capture(captured);

  for (std::size_t b = 0; b < batch; ++b) {
    EXPECT_EQ(unsynced_outs[b].probs, single_outs[b].probs);  // bitwise
    EXPECT_EQ(unsynced_outs[b].value, single_outs[b].value);
    EXPECT_EQ(capture_outs[b].probs, single_outs[b].probs);
    EXPECT_EQ(capture_outs[b].value, single_outs[b].value);
    // forward_inference must agree as well (it shares the fast path).
    const auto inference = captured.forward_inference(samples[b]);
    EXPECT_EQ(inference.probs, single_outs[b].probs);
    EXPECT_EQ(inference.value, single_outs[b].value);
    EXPECT_EQ(unsynced_outs[b].logits, single_outs[b].logits);
  }
  auto ps = single.params();
  auto pu = unsynced.params();
  auto pc = captured.params();
  ASSERT_EQ(ps.size(), pu.size());
  ASSERT_EQ(ps.size(), pc.size());
  for (std::size_t p = 0; p < ps.size(); ++p) {
    EXPECT_EQ(ps[p].grad->data(), pu[p].grad->data()) << "param " << p;
    EXPECT_EQ(ps[p].grad->data(), pc[p].grad->data()) << "param " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, NetBatchedVariantTest,
    ::testing::Combine(::testing::Values(TemporalUnit::kConv1D,
                                         TemporalUnit::kRnn,
                                         TemporalUnit::kLstm,
                                         TemporalUnit::kDense),
                       ::testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<TemporalUnit, bool>>& info) {
      return std::string(temporal_unit_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_shared" : "_separate");
    });

TEST(ActorCriticNet, BatchedRejectsEmptyAndMalformedBatches) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.conv_filters = 4;
  spec.scalar_hidden = 4;
  spec.merge_hidden = 4;
  util::Rng rng(5);
  StateSignature sig;
  sig.row_lengths = {1, 8};
  ActorCriticNet net(spec, sig, 3, rng);
  EXPECT_THROW(net.begin_batch_capture(0), std::invalid_argument);
  net.begin_batch_capture(1);
  const std::vector<Vec> bad_rows = {{0.1}};
  EXPECT_THROW((void)net.forward_capture(bad_rows, 0), std::invalid_argument);
}

TEST(ActorCriticNet, ForwardCaptureRejectsRowOutsideBatch) {
  for (const bool shared : {false, true}) {
    ArchSpec spec = ArchSpec::pensieve();
    spec.conv_filters = 4;
    spec.scalar_hidden = 4;
    spec.merge_hidden = 4;
    spec.shared_trunk = shared;
    util::Rng rng(26);
    StateSignature sig;
    sig.row_lengths = {1, 8};
    ActorCriticNet net(spec, sig, 3, rng);
    const std::vector<Vec> rows = {{0.4}, Vec(8, 0.1)};
    net.begin_batch_capture(2);
    EXPECT_NO_THROW((void)net.forward_capture(rows, 1));
    EXPECT_THROW((void)net.forward_capture(rows, 2), std::out_of_range)
        << (shared ? "shared" : "separate");
  }
}

TEST(ActorCriticNet, WholeNetGradientCheck) {
  // End-to-end gradient check through branches, merge, and actor head via
  // a loss over logits and value.
  ArchSpec spec = ArchSpec::pensieve();
  spec.conv_filters = 4;
  spec.scalar_hidden = 4;
  spec.merge_hidden = 6;
  spec.activation = Activation::kTanh;
  util::Rng rng(14);
  StateSignature sig;
  sig.row_lengths = {1, 8};
  ActorCriticNet net(spec, sig, 3, rng);

  const std::vector<Vec> rows = {{0.4},
                                 {0.1, -0.2, 0.3, 0.25, -0.15, 0.05, 0.4,
                                  -0.3}};
  const Vec w_logit = {0.3, -0.7, 0.5};
  const double w_value = 0.9;
  auto loss = [&] {
    const auto out = net.forward_inference(rows);
    return dot(out.logits, w_logit) + w_value * out.value;
  };

  net.zero_grad();
  net.begin_batch_capture(1);
  (void)net.forward_capture(rows, 0);
  Mat dlogits(1, w_logit.size());
  std::copy(w_logit.begin(), w_logit.end(), dlogits.row(0).begin());
  net.backward_batch(dlogits, {w_value});

  const double eps = 1e-6;
  auto params = net.params();
  std::size_t checked = 0;
  for (auto& p : params) {
    auto& values = p.value->data();
    auto& grads = p.grad->data();
    const std::size_t stride = std::max<std::size_t>(values.size() / 8, 1);
    for (std::size_t j = 0; j < values.size(); j += stride) {
      const double saved = values[j];
      values[j] = saved + eps;
      const double up = loss();
      values[j] = saved - eps;
      const double down = loss();
      values[j] = saved;
      EXPECT_NEAR(grads[j], (up - down) / (2 * eps), 1e-5);
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(ActorCriticNet, RowMismatchThrows) {
  util::Rng rng(17);
  ArchSpec spec = ArchSpec::pensieve();
  spec.conv_filters = 8;
  spec.scalar_hidden = 8;
  spec.merge_hidden = 8;
  ActorCriticNet net(spec, pensieve_signature(), 6, rng);
  EXPECT_THROW(net.forward_inference({{0.1}}), std::invalid_argument);
  std::vector<Vec> bad_rows = {{0.3}, {0.9}, {0.1, 0.2}, {0.2},
                               {0.1}, {0.5}};
  EXPECT_THROW(net.forward_inference(bad_rows), std::invalid_argument);
  net.begin_batch_capture(1);
  EXPECT_THROW(net.forward_capture({{0.1}}, 0), std::invalid_argument);
  EXPECT_THROW(net.forward_capture(bad_rows, 0), std::invalid_argument);

  // Training errors are journaled, so the message text is pinned.
  auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no throw)";
  };
  EXPECT_EQ(message_of([&] { (void)net.forward_inference({{0.1}}); }),
            "ActorCriticNet::forward_inference: row count 1 != signature 6");
  EXPECT_EQ(message_of([&] { (void)net.forward_capture(bad_rows, 0); }),
            "ActorCriticNet::forward_capture: row 2 length mismatch");
}

TEST(ActorCriticNet, FewerThanTwoActionsRejected) {
  util::Rng rng(18);
  EXPECT_THROW(
      ActorCriticNet(ArchSpec::pensieve(), pensieve_signature(), 1, rng),
      ArchError);
}

// ---- classifiers ------------------------------------------------------------------

TEST(Conv1DClassifier, LearnsRisingVsFalling) {
  util::Rng rng(19);
  Conv1DClassifier clf(16, 8, 5, 8, rng);
  std::vector<Vec> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    Vec x(16);
    const bool rising = i % 2 == 0;
    for (int t = 0; t < 16; ++t) {
      const double base = rising ? t / 16.0 : 1.0 - t / 16.0;
      x[t] = base + rng.normal(0.0, 0.05);
    }
    xs.push_back(std::move(x));
    ys.push_back(rising ? 1.0 : 0.0);
  }
  ClassifierTrainOptions opts;
  opts.epochs = 40;
  clf.train(xs, ys, opts);

  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    const double p = clf.predict(xs[i]);
    if ((p > 0.5) == (ys[i] > 0.5)) ++correct;
  }
  EXPECT_GT(correct, 180);
}

TEST(MlpClassifier, LearnsLinearlySeparable) {
  util::Rng rng(20);
  MlpClassifier clf(4, {8}, rng);
  std::vector<Vec> xs;
  std::vector<double> ys;
  for (int i = 0; i < 300; ++i) {
    Vec x(4);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    const double margin = x[0] + 0.5 * x[1] - 0.8 * x[2];
    if (std::abs(margin) < 0.2) continue;  // keep a margin
    xs.push_back(x);
    ys.push_back(margin > 0 ? 1.0 : 0.0);
  }
  ClassifierTrainOptions opts;
  opts.epochs = 60;
  clf.train(xs, ys, opts);
  int correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if ((clf.predict(xs[i]) > 0.5) == (ys[i] > 0.5)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / xs.size(), 0.92);
}

TEST(Classifier, SoftLabelsAccepted) {
  util::Rng rng(21);
  MlpClassifier clf(2, {4}, rng);
  const std::vector<Vec> xs = {{0.0, 1.0}, {1.0, 0.0}};
  const std::vector<double> ys = {0.8, 0.2};
  ClassifierTrainOptions opts;
  opts.epochs = 5;
  EXPECT_NO_THROW(clf.train(xs, ys, opts));
}

TEST(Classifier, RejectsBadLabels) {
  util::Rng rng(22);
  MlpClassifier clf(2, {4}, rng);
  const std::vector<Vec> xs = {{0.0, 1.0}};
  ClassifierTrainOptions opts;
  EXPECT_THROW(clf.train(xs, {1.5}, opts), std::invalid_argument);
  EXPECT_THROW(clf.train(xs, {-0.1}, opts), std::invalid_argument);
  EXPECT_THROW(clf.train({}, {}, opts), std::invalid_argument);
}

TEST(Classifier, PredictRejectsWrongDim) {
  util::Rng rng(23);
  MlpClassifier clf(3, {4}, rng);
  EXPECT_THROW(clf.predict({1.0}), std::invalid_argument);
  Conv1DClassifier c2(8, 4, 3, 4, rng);
  EXPECT_THROW(c2.predict({1.0, 2.0}), std::invalid_argument);
}

TEST(Classifier, PredictIsConstAndStable) {
  // predict() runs a cache-free inference path: it is callable through a
  // const reference and repeated calls return the same score.
  util::Rng rng(24);
  MlpClassifier mlp(2, {4}, rng);
  const BinaryClassifier& mlp_ref = mlp;
  const double m1 = mlp_ref.predict({0.3, -0.2});
  EXPECT_EQ(m1, mlp_ref.predict({0.3, -0.2}));

  Conv1DClassifier cnn(8, 4, 3, 4, rng);
  const BinaryClassifier& cnn_ref = cnn;
  const Vec x = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  const double c1 = cnn_ref.predict(x);
  EXPECT_EQ(c1, cnn_ref.predict(x));
  EXPECT_GT(c1, 0.0);
  EXPECT_LT(c1, 1.0);
}

// Pins classifier training to the bits it produced when each sample ran
// its own forward and backward pass: 37 samples at the default batch size
// of 16 leave a trailing partial mini-batch of 5, which divides its
// gradients by 16 and gets no L2 term.
std::uint64_t prediction_digest(const BinaryClassifier& clf,
                                const std::vector<Vec>& xs) {
  std::ostringstream hex;
  hex << std::hex << std::setfill('0');
  for (const Vec& x : xs) {
    hex << std::setw(16) << std::bit_cast<std::uint64_t>(clf.predict(x));
  }
  return util::fnv1a64(hex.str());
}

TEST(Classifier, TrainingMatchesPinnedPredictions) {
  util::Rng data_rng(31);
  std::vector<Vec> series;
  std::vector<Vec> features;
  std::vector<double> labels;
  for (std::size_t i = 0; i < 37; ++i) {
    Vec s(12);
    for (double& v : s) v = data_rng.uniform(-1.0, 1.0);
    series.push_back(std::move(s));
    Vec f(5);
    for (double& v : f) v = data_rng.uniform(-1.0, 1.0);
    features.push_back(std::move(f));
    labels.push_back(i % 3 == 0 ? 1.0 : (i % 3 == 1 ? 0.0 : 0.75));
  }
  ClassifierTrainOptions opts;
  opts.epochs = 3;
  ASSERT_EQ(opts.batch_size, 16u);
  util::Rng rng(32);
  Conv1DClassifier cnn(12, 4, 3, 6, rng);
  cnn.train(series, labels, opts);
  MlpClassifier mlp(5, {6, 4}, rng);
  mlp.train(features, labels, opts);
  EXPECT_EQ(prediction_digest(cnn, series), 0x93b798bccde1d403ULL);
  EXPECT_EQ(prediction_digest(mlp, features), 0x587cf9d8ab7f3c2cULL);
}

}  // namespace
}  // namespace nada::nn
