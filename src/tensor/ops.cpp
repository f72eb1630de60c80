#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/parallel.hpp"

namespace gt {

namespace {
void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// ---- Register-tiled dense products ------------------------------------------
//
// Each product computes its output in tiles of up to 4 rows x 8 columns
// whose accumulators stay in SSE registers across the whole inner loop.
// Every output element starts from +0.0f and adds its a*b products in
// ascending inner index, each a multiply and then an add: exactly the
// operations of the naive loop, so the results are bit-identical to it
// for any shape, tiling and thread count. (Seeding an accumulator with its
// first product instead would turn a -0.0 product into a -0.0 sum.) The
// vector type is a GCC extension over baseline x86-64 SSE2: no -march and
// no FMA, whose fused rounding would change the bits.

using F4 = float __attribute__((vector_size(16)));

F4 load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, F4 v) { std::memcpy(p, &v, sizeof v); }

/// W consecutive elements of one output row, held in registers: W / 4
/// full vectors, or for W < 4 one vector whose upper lanes stay unused.
/// Every load and store moves exactly the W floats of the row. (With W < 4
/// held as plain floats, GCC 12's vectorizer combined a row's load with
/// the next row's, reading past the end of an operand.)
template <std::size_t W>
struct Lanes {
  static constexpr std::size_t kVectors = (W + 3) / 4;
  F4 v[kVectors];
  void zero() {
#pragma GCC unroll 2
    for (std::size_t q = 0; q < kVectors; ++q) v[q] = F4{};
  }
  void load(const float* p) {
    if constexpr (W % 4 == 0) {
#pragma GCC unroll 2
      for (std::size_t q = 0; q < kVectors; ++q) v[q] = load4(p + 4 * q);
    } else {
      static_assert(W < 4);
      v[0] = F4{};
      std::memcpy(&v[0], p, W * sizeof(float));
    }
  }
  void store(float* p) const {
    if constexpr (W % 4 == 0) {
#pragma GCC unroll 2
      for (std::size_t q = 0; q < kVectors; ++q) store4(p + 4 * q, v[q]);
    } else {
      std::memcpy(p, &v[0], W * sizeof(float));
    }
  }
  /// this += a * b, lane by lane.
  void madd(float a, const Lanes& b) {
#pragma GCC unroll 2
    for (std::size_t q = 0; q < kVectors; ++q) v[q] += a * b.v[q];
  }
};

/// Run `f.template operator()<W>(j)` over the columns [0, n) in lane
/// blocks of 8, then at most one block each of 4, 2 and 1: every width
/// runs the same tiles.
template <typename F>
void for_lane_blocks(std::size_t n, F&& f) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) f.template operator()<8>(j);
  if (j + 4 <= n) { f.template operator()<4>(j); j += 4; }
  if (j + 2 <= n) { f.template operator()<2>(j); j += 2; }
  if (j < n) f.template operator()<1>(j);
}

/// The same over the output rows [lo, hi) in row blocks of 4, 2 and 1.
template <typename F>
void for_row_blocks(std::size_t lo, std::size_t hi, F&& f) {
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) f.template operator()<4>(i);
  if (i + 2 <= hi) { f.template operator()<2>(i); i += 2; }
  if (i < hi) f.template operator()<1>(i);
}

/// C[r][0, W) = sum over p in [0, k) of A[r][p] * B[p][0, W), r < MR. Row r
/// of A starts at a + r * lda, row p of B at b + p * ldb, row r of C at
/// c + r * ldc.
template <std::size_t MR, std::size_t W>
void ab_tile(const float* a, std::size_t lda, const float* b, std::size_t ldb,
             std::size_t k, float* c, std::size_t ldc) {
  Lanes<W> acc[MR];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r) acc[r].zero();
  for (std::size_t p = 0; p < k; ++p) {
    Lanes<W> bp;
    bp.load(b + p * ldb);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) acc[r].madd(a[r * lda + p], bp);
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r) acc[r].store(c + r * ldc);
}

/// C[r][0, W) += sum over p in [p_lo, p_hi) of A[p][r] * B[p][0, W): the
/// transposed-A tile, resumed from C's partial sums unless p_lo == 0, when
/// it starts from +0.0f. Column r of A starts at a + r, row p at
/// a + p * lda.
template <std::size_t MR, std::size_t W>
void atb_tile(const float* a, std::size_t lda, const float* b,
              std::size_t ldb, std::size_t p_lo, std::size_t p_hi, float* c,
              std::size_t ldc) {
  Lanes<W> acc[MR];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r) {
    if (p_lo == 0)
      acc[r].zero();
    else
      acc[r].load(c + r * ldc);
  }
  for (std::size_t p = p_lo; p < p_hi; ++p) {
    Lanes<W> bp;
    bp.load(b + p * ldb);
    const float* ap = a + p * lda;
#pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) acc[r].madd(ap[r], bp);
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r) acc[r].store(c + r * ldc);
}

/// Rows of A that matmul_at_b's tiles sweep before moving to the next
/// tile: a block of A's rows stays cache-resident while every tile of the
/// chunk reads its columns, and the partial sums round-trip through C
/// exactly (a float store and reload), so the block size is invisible in
/// the results.
constexpr std::size_t kAtbRowBlock = 32;

// Below this many FLOPs the pool dispatch overhead outweighs the work and
// the product runs inline on the calling thread. The tiles are the same
// either way, so the cutoff never affects results.
constexpr std::uint64_t kParallelFlopThreshold = 1ull << 18;

/// Run fn(row_lo, row_hi) over the output rows [0, m), split on 4-row tile
/// boundaries into compute-engine chunks (inline for small products). No
/// element's arithmetic depends on its chunk, so results are bit-identical
/// for any thread count.
template <typename F>
void for_row_chunks(std::size_t m, std::uint64_t total_flops, F&& fn) {
  if (m == 0) return;
  const std::size_t tiles = (m + 3) / 4;
  auto rows = [&](std::size_t t_lo, std::size_t t_hi) {
    fn(t_lo * 4, std::min(m, t_hi * 4));
  };
  if (total_flops < kParallelFlopThreshold) {
    rows(0, tiles);
    return;
  }
  compute_parallel_for(0, tiles, rows);
}

/// C = A * B over row-major storage: A [m, k] at `a`, B [k, n] at `b`.
void ab_product(const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n) {
  for_row_chunks(m, 2ull * m * k * n, [&](std::size_t lo, std::size_t hi) {
    for_row_blocks(lo, hi, [&]<std::size_t MR>(std::size_t i) {
      for_lane_blocks(n, [&]<std::size_t W>(std::size_t j) {
        ab_tile<MR, W>(a + i * k, k, b + j, n, k, c + i * n + j, n);
      });
    });
  });
}
}  // namespace

void matmul_into(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  require(a.cols() == b.rows(), "matmul: inner dimensions differ");
  require(out.rows() == a.rows() && out.cols() == b.cols(),
          "matmul: output shape mismatch");
  ab_product(a.data().data(), b.data().data(), out.data().data(), a.rows(),
             a.cols(), b.cols());
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  require(a.cols() == b.rows(), "matmul: inner dimensions differ");
  Matrix c(a.rows(), b.cols());
  matmul_into(a, b, c);
  return c;
}

void matmul_at_b_into(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  require(a.rows() == b.rows(), "matmul_at_b: leading dimensions differ");
  require(out.rows() == a.cols() && out.cols() == b.cols(),
          "matmul_at_b: output shape mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (k == 0) {
    out.fill(0.0f);
    return;
  }
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* cd = out.data().data();
  // Chunks own disjoint rows of C (columns of A); inside a chunk the rows
  // of A stream in blocks and each block visits every tile of the chunk.
  for_row_chunks(m, 2ull * m * k * n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t p0 = 0; p0 < k; p0 += kAtbRowBlock) {
      const std::size_t p1 = std::min(k, p0 + kAtbRowBlock);
      for_row_blocks(lo, hi, [&]<std::size_t MR>(std::size_t i) {
        for_lane_blocks(n, [&]<std::size_t W>(std::size_t j) {
          atb_tile<MR, W>(ad + i, m, bd + j, n, p0, p1, cd + i * n + j, n);
        });
      });
    }
  });
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows(), "matmul_at_b: leading dimensions differ");
  Matrix c(a.cols(), b.cols());
  matmul_at_b_into(a, b, c);
  return c;
}

void matmul_a_bt_into(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  require(a.cols() == b.cols(), "matmul_a_bt: inner dimensions differ");
  require(out.rows() == a.rows() && out.cols() == b.rows(),
          "matmul_a_bt: output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  // A * B^T is A times B transposed: pack B^T once ([k, n], reused per
  // calling thread), then run the A * B tiles. Element (i, j) is still the
  // dot product of A's row i and B's row j in ascending inner index.
  thread_local std::vector<float> bt;
  bt.resize(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto brow = b.row(j);
    for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = brow[p];
  }
  ab_product(a.data().data(), bt.data(), out.data().data(), m, k, n);
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  require(a.cols() == b.cols(), "matmul_a_bt: inner dimensions differ");
  Matrix c(a.rows(), b.rows());
  matmul_a_bt_into(a, b, c);
  return c;
}

void transpose_into(ConstMatrixView a, MatrixView out) {
  require(out.rows() == a.cols() && out.cols() == a.rows(),
          "transpose: output shape mismatch");
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) out.at(c, r) = a.at(r, c);
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  transpose_into(a, t);
  return t;
}

void add_bias_into(ConstMatrixView a, ConstMatrixView bias, MatrixView out) {
  require(bias.rows() == 1 && bias.cols() == a.cols(),
          "add_bias: bias must be 1 x cols");
  require(out.rows() == a.rows() && out.cols() == a.cols(),
          "add_bias: output shape mismatch");
  const auto brow = bias.row(0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto arow = a.row(r);
    auto orow = out.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) orow[c] = arow[c] + brow[c];
  }
}

Matrix add_bias(const Matrix& a, const Matrix& bias) {
  Matrix out(a.rows(), a.cols());
  add_bias_into(a, bias, out);
  return out;
}

namespace {
template <typename F>
void zip_into(ConstMatrixView a, ConstMatrixView b, MatrixView out, F&& f,
              const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols() ||
      out.rows() != a.rows() || out.cols() != a.cols())
    throw std::invalid_argument(what);
  const auto da = a.data();
  const auto db = b.data();
  auto dout = out.data();
  for (std::size_t i = 0; i < da.size(); ++i) dout[i] = f(da[i], db[i]);
}

template <typename F>
Matrix zip(const Matrix& a, const Matrix& b, F&& f, const char* what) {
  if (!a.same_shape(b)) throw std::invalid_argument(what);
  Matrix out(a.rows(), a.cols());
  zip_into(a, b, out, std::forward<F>(f), what);
  return out;
}
}  // namespace

Matrix add(const Matrix& a, const Matrix& b) {
  return zip(a, b, [](float x, float y) { return x + y; },
             "add: shape mismatch");
}

Matrix sub(const Matrix& a, const Matrix& b) {
  return zip(a, b, [](float x, float y) { return x - y; },
             "sub: shape mismatch");
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  return zip(a, b, [](float x, float y) { return x * y; },
             "hadamard: shape mismatch");
}

void scale_into(ConstMatrixView a, float s, MatrixView out) {
  require(out.rows() == a.rows() && out.cols() == a.cols(),
          "scale: output shape mismatch");
  const auto da = a.data();
  auto dout = out.data();
  for (std::size_t i = 0; i < da.size(); ++i) dout[i] = da[i] * s;
}

Matrix scale(const Matrix& a, float s) {
  Matrix out(a.rows(), a.cols());
  scale_into(a, s, out);
  return out;
}

void relu_into(ConstMatrixView a, MatrixView out) {
  require(out.rows() == a.rows() && out.cols() == a.cols(),
          "relu: output shape mismatch");
  const auto da = a.data();
  auto dout = out.data();
  for (std::size_t i = 0; i < da.size(); ++i)
    dout[i] = da[i] > 0.0f ? da[i] : 0.0f;
}

Matrix relu(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  relu_into(a, out);
  return out;
}

Matrix relu_backward(const Matrix& grad_out, const Matrix& x) {
  return zip(grad_out, x, [](float g, float xv) { return xv > 0.0f ? g : 0.0f; },
             "relu_backward: shape mismatch");
}

void softmax_rows_into(ConstMatrixView a, MatrixView out) {
  require(out.rows() == a.rows() && out.cols() == a.cols(),
          "softmax_rows: output shape mismatch");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto arow = a.row(r);
    auto orow = out.row(r);
    float mx = arow[0];
    for (float v : arow) mx = std::max(mx, v);
    float sum = 0.0f;
    for (std::size_t c = 0; c < a.cols(); ++c) {
      orow[c] = std::exp(arow[c] - mx);
      sum += orow[c];
    }
    for (std::size_t c = 0; c < a.cols(); ++c) orow[c] /= sum;
  }
}

Matrix softmax_rows(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  softmax_rows_into(a, out);
  return out;
}

float softmax_cross_entropy_into(ConstMatrixView logits,
                                 const std::vector<std::uint32_t>& labels,
                                 MatrixView grad) {
  require(labels.size() == logits.rows(),
          "softmax_cross_entropy: one label per row required");
  const float inv_n = 1.0f / static_cast<float>(logits.rows());
  float loss = 0.0f;
  if (!grad.empty()) {
    require(grad.rows() == logits.rows() && grad.cols() == logits.cols(),
            "softmax_cross_entropy: grad shape mismatch");
    // Probabilities land directly in grad, then become dL/dlogits in place
    // — bit-identical to the owning form, which also scales probs last.
    softmax_rows_into(logits, grad);
    for (std::size_t r = 0; r < logits.rows(); ++r) {
      require(labels[r] < logits.cols(), "softmax_cross_entropy: bad label");
      loss -= std::log(std::max(grad.at(r, labels[r]), 1e-12f));
    }
    loss *= inv_n;
    for (std::size_t r = 0; r < logits.rows(); ++r)
      grad.at(r, labels[r]) -= 1.0f;
    scale_into(ConstMatrixView(grad), inv_n, grad);
  } else {
    for (std::size_t r = 0; r < logits.rows(); ++r) {
      require(labels[r] < logits.cols(), "softmax_cross_entropy: bad label");
      const auto lrow = logits.row(r);
      float mx = lrow[0];
      for (float v : lrow) mx = std::max(mx, v);
      float sum = 0.0f;
      for (float v : lrow) sum += std::exp(v - mx);
      const float p = std::exp(lrow[labels[r]] - mx) / sum;
      loss -= std::log(std::max(p, 1e-12f));
    }
    loss *= inv_n;
  }
  return loss;
}

float softmax_cross_entropy(const Matrix& logits,
                            const std::vector<std::uint32_t>& labels,
                            Matrix* grad) {
  if (grad != nullptr) {
    grad->resize(logits.rows(), logits.cols());
    return softmax_cross_entropy_into(logits, labels, *grad);
  }
  return softmax_cross_entropy_into(logits, labels, MatrixView());
}

void col_sum_into(ConstMatrixView a, MatrixView out) {
  require(out.rows() == 1 && out.cols() == a.cols(),
          "col_sum: output must be 1 x cols");
  out.fill(0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto arow = a.row(r);
    auto orow = out.row(0);
    for (std::size_t c = 0; c < a.cols(); ++c) orow[c] += arow[c];
  }
}

Matrix col_sum(const Matrix& a) {
  Matrix out(1, a.cols());
  col_sum_into(a, out);
  return out;
}

float fro_norm(const Matrix& a) {
  double acc = 0.0;
  for (float v : a.data()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace gt
