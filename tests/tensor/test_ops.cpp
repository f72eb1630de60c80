#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace gt {
namespace {

Matrix rnd(std::size_t r, std::size_t c, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return Matrix::uniform(r, c, rng);
}

TEST(Ops, MatmulKnown) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Matrix b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
}

TEST(Ops, TransposedVariantsAgreeWithExplicitTranspose) {
  Matrix a = rnd(5, 7, 1), b = rnd(5, 9, 2);
  EXPECT_TRUE(allclose(matmul_at_b(a, b), matmul(transpose(a), b), 1e-4f));
  Matrix c = rnd(4, 7, 3), d = rnd(6, 7, 4);
  EXPECT_TRUE(allclose(matmul_a_bt(c, d), matmul(c, transpose(d)), 1e-4f));
}

TEST(Ops, MatmulAssociativity) {
  // (AB)C == A(BC): the algebraic identity dynamic kernel placement uses.
  Matrix a = rnd(4, 5, 5), b = rnd(5, 6, 6), c = rnd(6, 3, 7);
  EXPECT_TRUE(allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)),
                       1e-3f));
}

TEST(Ops, AddBias) {
  Matrix a(2, 3, 1.0f);
  Matrix bias(1, 3);
  bias.at(0, 0) = 1;
  bias.at(0, 1) = 2;
  bias.at(0, 2) = 3;
  Matrix out = add_bias(a, bias);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2);
  EXPECT_FLOAT_EQ(out.at(1, 2), 4);
}

TEST(Ops, ElementwiseOps) {
  Matrix a(1, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = -2;
  a.at(0, 2) = 3;
  Matrix b(1, 3, 2.0f);
  EXPECT_FLOAT_EQ(add(a, b).at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(sub(a, b).at(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(hadamard(a, b).at(0, 1), -4.0f);
  EXPECT_FLOAT_EQ(scale(a, -1.0f).at(0, 0), -1.0f);
}

TEST(Ops, ReluAndBackward) {
  Matrix x(1, 4);
  x.at(0, 0) = -1;
  x.at(0, 1) = 0;
  x.at(0, 2) = 2;
  x.at(0, 3) = -3;
  Matrix y = relu(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0);
  EXPECT_FLOAT_EQ(y.at(0, 2), 2);
  Matrix g(1, 4, 1.0f);
  Matrix gx = relu_backward(g, x);
  EXPECT_FLOAT_EQ(gx.at(0, 0), 0);
  EXPECT_FLOAT_EQ(gx.at(0, 2), 1);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Matrix a = rnd(6, 10, 8);
  Matrix p = softmax_rows(a);
  for (std::size_t r = 0; r < p.rows(); ++r) {
    float sum = 0;
    for (std::size_t c = 0; c < p.cols(); ++c) {
      sum += p.at(r, c);
      EXPECT_GT(p.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxCrossEntropyGradientMatchesNumerical) {
  Matrix logits = rnd(3, 4, 9);
  std::vector<std::uint32_t> labels{1, 0, 3};
  Matrix grad;
  softmax_cross_entropy(logits, labels, &grad);
  const float eps = 1e-3f;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      Matrix lp = logits, lm = logits;
      lp.at(r, c) += eps;
      lm.at(r, c) -= eps;
      const float numeric = (softmax_cross_entropy(lp, labels) -
                             softmax_cross_entropy(lm, labels)) /
                            (2 * eps);
      EXPECT_NEAR(grad.at(r, c), numeric, 5e-3f);
    }
  }
}

TEST(Ops, ColSum) {
  Matrix a(3, 2, 1.0f);
  a.at(2, 1) = 4.0f;
  Matrix s = col_sum(a);
  EXPECT_FLOAT_EQ(s.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s.at(0, 1), 6.0f);
}

TEST(Ops, FroNorm) {
  Matrix a(1, 2);
  a.at(0, 0) = 3;
  a.at(0, 1) = 4;
  EXPECT_FLOAT_EQ(fro_norm(a), 5.0f);
}

}  // namespace
}  // namespace gt
