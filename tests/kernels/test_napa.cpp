#include "kernels/napa.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "kernel_test_util.hpp"
#include "tensor/ops.hpp"

namespace gt::kernels {
namespace {

using testing::LayerProblem;
using testing::make_problem;

class NapaModes
    : public ::testing::TestWithParam<std::tuple<AggMode, EdgeWeightMode>> {};

TEST_P(NapaModes, ForwardMatchesReference) {
  const auto [f, g] = GetParam();
  LayerProblem p = make_problem(11);
  gpusim::Device dev;
  DeviceCsr dg = upload_csr(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");

  gpusim::BufferId weights = gpusim::kInvalidBuffer;
  Matrix ref_w;
  if (g != EdgeWeightMode::kNone) {
    weights = napa::neighbor_apply(dev, dg, x, g);
    ref_w = ref::edge_weights(p.csr, p.x, p.n_dst, g);
    EXPECT_TRUE(allclose(download_matrix(dev, weights), ref_w, 1e-4f));
  }
  auto aggr = napa::pull(dev, dg, x, weights, f, g);
  Matrix want = ref::aggregate(p.csr, p.x, ref_w, p.n_dst, f, g);
  EXPECT_TRUE(allclose(download_matrix(dev, aggr), want, 1e-4f))
      << "f=" << to_string(f) << " g=" << to_string(g);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, NapaModes,
    ::testing::Combine(::testing::Values(AggMode::kSum, AggMode::kMean,
                                         AggMode::kMax),
                       ::testing::Values(EdgeWeightMode::kNone,
                                         EdgeWeightMode::kDot,
                                         EdgeWeightMode::kElemProduct)));

TEST(Napa, ApplyDenseMatchesReference) {
  LayerProblem p = make_problem(12);
  gpusim::Device dev;
  auto x = upload_matrix(dev, p.x, "x");
  auto w = upload_matrix(dev, p.w, "w");
  auto b = upload_matrix(dev, p.b, "b");
  for (bool relu_act : {false, true}) {
    gpusim::BufferId pre = gpusim::kInvalidBuffer;
    auto y = napa::apply_dense(dev, x, w, b, relu_act, &pre);
    Matrix want_pre;
    Matrix want = ref::combine(p.x, p.w, p.b, relu_act, &want_pre);
    EXPECT_TRUE(allclose(download_matrix(dev, y), want, 1e-4f));
    EXPECT_TRUE(allclose(download_matrix(dev, pre), want_pre, 1e-4f));
  }
}

class NapaBackward
    : public ::testing::TestWithParam<std::tuple<AggMode, EdgeWeightMode>> {};

TEST_P(NapaBackward, FullLayerBackwardMatchesReference) {
  const auto [f, g] = GetParam();
  LayerProblem p = make_problem(13);
  gpusim::Device dev;
  DeviceCsr dcsr = upload_csr(dev, p.csr, p.n_dst);
  DeviceCsc dcsc = upload_csc(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");
  auto w = upload_matrix(dev, p.w, "w");
  auto b = upload_matrix(dev, p.b, "b");

  // Device forward (with cache).
  gpusim::BufferId weights = gpusim::kInvalidBuffer;
  if (g != EdgeWeightMode::kNone)
    weights = napa::neighbor_apply(dev, dcsr, x, g);
  auto aggr = napa::pull(dev, dcsr, x, weights, f, g);
  gpusim::BufferId pre = gpusim::kInvalidBuffer;
  napa::apply_dense(dev, aggr, w, b, /*relu=*/true, &pre);

  // Reference forward + backward.
  ref::LayerCache cache;
  Matrix y =
      ref::forward_layer(p.csr, p.x, p.w, p.b, p.n_dst, f, g, true, &cache);
  Matrix dy = scale(y, 2.0f);
  ref::LayerGrads want =
      ref::backward_layer(p.csr, p.x, p.w, p.n_dst, f, g, true, dy, cache);

  // Device backward.
  auto dyb = upload_matrix(dev, dy, "dy");
  auto dense = napa::apply_dense_backward(dev, aggr, w, pre, dyb, true);
  EXPECT_TRUE(allclose(download_matrix(dev, dense.dw), want.dw, 1e-3f));
  EXPECT_TRUE(allclose(download_matrix(dev, dense.db), want.db, 1e-3f));
  auto dx = napa::pull_backward(dev, dcsr, dcsc, x, weights, dense.dx, f, g);
  if (g != EdgeWeightMode::kNone)
    napa::neighbor_apply_backward(dev, dcsr, x, dense.dx, dx, f, g);
  EXPECT_TRUE(allclose(download_matrix(dev, dx), want.dx, 1e-3f))
      << "f=" << to_string(f) << " g=" << to_string(g)
      << " diff=" << max_abs_diff(download_matrix(dev, dx), want.dx);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, NapaBackward,
    ::testing::Combine(::testing::Values(AggMode::kSum, AggMode::kMean),
                       ::testing::Values(EdgeWeightMode::kNone,
                                         EdgeWeightMode::kDot,
                                         EdgeWeightMode::kElemProduct)));

/// Bitwise equality of two matrices (allclose would hide a reordering).
bool bit_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.bytes()) == 0;
}

TEST(Napa, ApplyKernelsMatchNaiveLoopsBitwise) {
  // The Apply kernels regroup independent output elements into register
  // lanes; each element must still see the naive loop's exact operation
  // sequence. Widths 1..19 cover every lane-block remainder (8/4/2/1).
  for (std::size_t hidden = 1; hidden <= 19; ++hidden) {
    const std::size_t feat = 23 + hidden, rows = 13;
    LayerProblem p = make_problem(40 + hidden, rows, rows, 30, feat, hidden);
    Xoshiro256 rng(hidden);
    const Matrix dy = Matrix::uniform(rows, hidden, rng, -1.0f, 1.0f);
    const float* x = p.x.data().data();
    const float* w = p.w.data().data();

    Matrix xw(rows, hidden), dx(rows, feat), dw(feat, hidden);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t k = 0; k < feat; ++k)
        for (std::size_t c = 0; c < hidden; ++c)
          xw.data()[r * hidden + c] += x[r * feat + k] * w[k * hidden + c];
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t k = 0; k < feat; ++k) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < hidden; ++c)
          acc += dy.data()[r * hidden + c] * w[k * hidden + c];
        dx.data()[r * feat + k] = acc;
      }
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t k = 0; k < feat; ++k)
        for (std::size_t c = 0; c < hidden; ++c)
          dw.data()[k * hidden + c] +=
              x[r * feat + k] * dy.data()[r * hidden + c];

    gpusim::Device dev;
    auto xb = upload_matrix(dev, p.x, "x");
    auto wb = upload_matrix(dev, p.w, "w");
    auto dyb = upload_matrix(dev, dy, "dy");
    EXPECT_TRUE(bit_equal(download_matrix(dev, napa::apply_matmul(dev, xb, wb)),
                          xw))
        << "hidden " << hidden;
    auto grads = napa::apply_matmul_backward(dev, xb, wb, dyb, true);
    EXPECT_TRUE(bit_equal(download_matrix(dev, grads.dx), dx))
        << "hidden " << hidden;
    EXPECT_TRUE(bit_equal(download_matrix(dev, grads.dw), dw))
        << "hidden " << hidden;

    // apply_dense adds the bias after the same accumulation; its backward
    // without ReLU passes dy straight through to the same two products.
    Matrix pre = xw;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < hidden; ++c)
        pre.data()[r * hidden + c] += p.b.data()[c];
    auto bb = upload_matrix(dev, p.b, "b");
    gpusim::BufferId preb = gpusim::kInvalidBuffer;
    auto y = napa::apply_dense(dev, xb, wb, bb, /*relu=*/false, &preb);
    EXPECT_TRUE(bit_equal(download_matrix(dev, y), pre)) << "hidden " << hidden;
    auto dense = napa::apply_dense_backward(dev, xb, wb, preb, dyb, false);
    EXPECT_TRUE(bit_equal(download_matrix(dev, dense.dx), dx))
        << "hidden " << hidden;
    EXPECT_TRUE(bit_equal(download_matrix(dev, dense.dw), dw))
        << "hidden " << hidden;
  }
}

TEST(Napa, NeighborApplyRejectsNone) {
  LayerProblem p = make_problem(14);
  gpusim::Device dev;
  DeviceCsr dg = upload_csr(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");
  EXPECT_THROW(napa::neighbor_apply(dev, dg, x, EdgeWeightMode::kNone),
               std::invalid_argument);
}

TEST(Napa, PullWeightArgumentConsistency) {
  LayerProblem p = make_problem(15);
  gpusim::Device dev;
  DeviceCsr dg = upload_csr(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");
  EXPECT_THROW(
      napa::pull(dev, dg, x, gpusim::kInvalidBuffer, AggMode::kMean,
                 EdgeWeightMode::kDot),
      std::invalid_argument);
  EXPECT_THROW(napa::pull(dev, dg, x, x, AggMode::kMean,
                          EdgeWeightMode::kNone),
               std::invalid_argument);
}

TEST(Napa, MaxBackwardUnsupported) {
  LayerProblem p = make_problem(16);
  gpusim::Device dev;
  DeviceCsr dcsr = upload_csr(dev, p.csr, p.n_dst);
  DeviceCsc dcsc = upload_csc(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");
  auto da = dev.alloc_f32(p.n_dst, p.x.cols(), "da");
  EXPECT_THROW(napa::pull_backward(dev, dcsr, dcsc, x, gpusim::kInvalidBuffer,
                                   da, AggMode::kMax, EdgeWeightMode::kNone),
               std::invalid_argument);
}

TEST(Napa, KernelsAreCategorizedForProfiling) {
  LayerProblem p = make_problem(17);
  gpusim::Device dev;
  DeviceCsr dg = upload_csr(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");
  dev.clear_profile();
  auto weights = napa::neighbor_apply(dev, dg, x, EdgeWeightMode::kDot);
  napa::pull(dev, dg, x, weights, AggMode::kMean, EdgeWeightMode::kDot);
  using gpusim::KernelCategory;
  EXPECT_GT(accumulate(dev.profile(), KernelCategory::kEdgeWeight).latency_us,
            0.0);
  EXPECT_GT(
      accumulate(dev.profile(), KernelCategory::kAggregation).latency_us,
      0.0);
  // NAPA never translates formats or densifies.
  EXPECT_EQ(
      accumulate(dev.profile(), KernelCategory::kFormatTranslate).latency_us,
      0.0);
  EXPECT_EQ(
      accumulate(dev.profile(), KernelCategory::kSparse2Dense).latency_us,
      0.0);
}

}  // namespace
}  // namespace gt::kernels
