// Determinism of the tiled/parallel dense kernels: the matmul family must
// return bit-identical floats for every compute-thread count, because each
// output element's accumulation order is fixed (ascending inner index from
// +0.0f) regardless of how tiles are chunked across workers — and equal to
// the per-row loops the NAPA Apply kernels ran before they called these
// ops.
#include "tensor/ops.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gt {
namespace {

/// Restore the environment/hardware thread default when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { set_compute_threads(0); }
};

Matrix rnd(std::size_t r, std::size_t c, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return Matrix::uniform(r, c, rng);
}

bool bit_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

// Shapes big enough to cross the parallel-dispatch FLOP threshold (2mkn >
// 2^18), with ragged dimensions so tile/chunk boundaries don't divide
// evenly.
constexpr std::size_t kM = 129, kK = 65, kN = 67;

TEST(ParallelOps, MatmulBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const Matrix a = rnd(kM, kK, 1), b = rnd(kK, kN, 2);
  set_compute_threads(1);
  const Matrix serial = matmul(a, b);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    set_compute_threads(threads);
    EXPECT_TRUE(bit_equal(matmul(a, b), serial)) << threads << " threads";
  }
}

TEST(ParallelOps, TransposedVariantsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const Matrix a = rnd(kK, kM, 3), b = rnd(kK, kN, 4);  // at_b: [k,m]x[k,n]
  const Matrix c = rnd(kM, kK, 5), d = rnd(kN, kK, 6);  // a_bt: [m,k]x[n,k]
  set_compute_threads(1);
  const Matrix at_b = matmul_at_b(a, b);
  const Matrix a_bt = matmul_a_bt(c, d);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    set_compute_threads(threads);
    EXPECT_TRUE(bit_equal(matmul_at_b(a, b), at_b)) << threads << " threads";
    EXPECT_TRUE(bit_equal(matmul_a_bt(c, d), a_bt)) << threads << " threads";
  }
}

TEST(ParallelOps, SmallMatmulStaysBelowParallelThreshold) {
  // Tiny products run inline (the pool would cost more than the math);
  // the result must still match the multi-thread configuration bit-wise.
  ThreadGuard guard;
  const Matrix a = rnd(5, 7, 9), b = rnd(7, 3, 10);
  set_compute_threads(1);
  const Matrix serial = matmul(a, b);
  set_compute_threads(8);
  EXPECT_TRUE(bit_equal(matmul(a, b), serial));
}

// ---- Oracle: the per-row loops of the NAPA Apply kernels -------------------
//
// Copied from kernels/napa.cpp as it was before the Apply kernels called
// the tensor ops: N independent output elements at a time in a local array,
// each a multiply then an add, ascending over the reduced index.

/// out[j] += sum over k ascending of x[k] * w[k * ld + j], for j < N.
template <std::size_t N>
void xw_lanes(const float* x, const float* w, std::size_t feat,
              std::size_t ld, float* out) {
  float acc[N];
  for (std::size_t j = 0; j < N; ++j) acc[j] = out[j];
  for (std::size_t k = 0; k < feat; ++k) {
    const float xk = x[k];
    const float* wrow = w + k * ld;
    for (std::size_t j = 0; j < N; ++j) acc[j] += xk * wrow[j];
  }
  for (std::size_t j = 0; j < N; ++j) out[j] = acc[j];
}

/// dx[j] = sum over c ascending of dz[c] * w[j * ld + c], for j < N.
template <std::size_t N>
void wdz_lanes(const float* dz, const float* w, std::size_t hidden,
               std::size_t ld, float* dx) {
  float acc[N] = {};
  for (std::size_t c = 0; c < hidden; ++c) {
    const float d = dz[c];
    for (std::size_t j = 0; j < N; ++j) acc[j] += d * w[j * ld + c];
  }
  for (std::size_t j = 0; j < N; ++j) dx[j] = acc[j];
}

/// dw[k * ld + j] += x[k] * dy[j], for every k < feat and j < N.
template <std::size_t N>
void outer_lanes(const float* x, const float* dy, std::size_t feat,
                 std::size_t ld, float* dw) {
  float d[N];
  for (std::size_t j = 0; j < N; ++j) d[j] = dy[j];
  for (std::size_t k = 0; k < feat; ++k) {
    const float xk = x[k];
    float* row = dw + k * ld;
    for (std::size_t j = 0; j < N; ++j) row[j] += xk * d[j];
  }
}

template <typename Lanes>
void for_lane_blocks(std::size_t n, Lanes&& lanes) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) lanes.template operator()<8>(i);
  if (i + 4 <= n) { lanes.template operator()<4>(i); i += 4; }
  if (i + 2 <= n) { lanes.template operator()<2>(i); i += 2; }
  if (i < n) lanes.template operator()<1>(i);
}

/// X [m, k] * W [k, n], one zero-filled output row at a time.
Matrix oracle_xw(const Matrix& x, const Matrix& w) {
  Matrix out(x.rows(), w.cols());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for_lane_blocks(w.cols(), [&]<std::size_t N>(std::size_t c) {
      xw_lanes<N>(&x.data()[r * x.cols()], w.data().data() + c, x.cols(),
                  w.cols(), &out.data()[r * w.cols() + c]);
    });
  return out;
}

/// X^T [k, m]^T * dZ [m, n]: the serial outer-product dW loop.
Matrix oracle_xt_dz(const Matrix& x, const Matrix& dz) {
  Matrix dw(x.cols(), dz.cols());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for_lane_blocks(dz.cols(), [&]<std::size_t N>(std::size_t c) {
      outer_lanes<N>(&x.data()[r * x.cols()], &dz.data()[r * dz.cols() + c],
                     x.cols(), dz.cols(), dw.data().data() + c);
    });
  return dw;
}

/// dZ [m, k] * W [n, k]^T: one dx row at a time.
Matrix oracle_dz_wt(const Matrix& dz, const Matrix& w) {
  Matrix dx(dz.rows(), w.rows());
  for (std::size_t r = 0; r < dz.rows(); ++r)
    for_lane_blocks(w.rows(), [&]<std::size_t N>(std::size_t j) {
      wdz_lanes<N>(&dz.data()[r * dz.cols()], &w.data()[j * w.cols()],
                   w.cols(), w.cols(), &dx.data()[r * w.rows() + j]);
    });
  return dx;
}

/// Uniform values with about a third of the entries +0.0f or -0.0f, so
/// products of -0.0 and sums of them occur at every shape (k == 1 above
/// all): a tile seeded with its first product instead of +0.0f returns
/// -0.0 where the loops return +0.0.
Matrix signed_zero_rich(std::size_t r, std::size_t c, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Matrix m = Matrix::uniform(r, c, rng);
  for (float& v : m.data()) {
    switch (rng.uniform(6)) {
      case 0: v = 0.0f; break;
      case 1: v = -0.0f; break;
      default: break;
    }
  }
  return m;
}

TEST(ParallelOps, TiledProductsMatchThePerRowLoopsBitForBit) {
  ThreadGuard guard;
  std::uint64_t seed = 100;
  for (const std::size_t m : {1, 3, 4, 5, 129, 1200}) {
    for (const std::size_t k : {1, 8, 13, 65, 544}) {
      for (const std::size_t n : {1, 2, 3, 8, 13, 67}) {
        // X·W and X^T·dZ as in the forward and weight-gradient passes;
        // dZ·W^T with x as dZ [m, k] and w_nk as W [n, k].
        const Matrix x = signed_zero_rich(m, k, ++seed);
        const Matrix w = signed_zero_rich(k, n, ++seed);
        const Matrix dz = signed_zero_rich(m, n, ++seed);
        const Matrix w_nk = signed_zero_rich(n, k, ++seed);
        const Matrix xw = oracle_xw(x, w);
        const Matrix xt_dz = oracle_xt_dz(x, dz);
        const Matrix dz_wt = oracle_dz_wt(x, w_nk);
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
          set_compute_threads(threads);
          const std::string at = "m=" + std::to_string(m) +
                                 " k=" + std::to_string(k) +
                                 " n=" + std::to_string(n) + " threads=" +
                                 std::to_string(threads);
          EXPECT_TRUE(bit_equal(matmul(x, w), xw)) << "X*W " << at;
          EXPECT_TRUE(bit_equal(matmul_at_b(x, dz), xt_dz))
              << "X^T*dZ " << at;
          EXPECT_TRUE(bit_equal(matmul_a_bt(x, w_nk), dz_wt))
              << "dZ*W^T " << at;
        }
      }
    }
  }
}

/// A matrix whose storage ends exactly where an inaccessible page begins,
/// so a kernel that reads or writes one float past it faults.
class GuardedMatrix {
 public:
  GuardedMatrix(const Matrix& m) : rows_(m.rows()), cols_(m.cols()) {
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = m.data().size() * sizeof(float);
    data_bytes_ = (bytes + page - 1) / page * page;
    map_bytes_ = data_bytes_ + page;
    void* base = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(base, MAP_FAILED);
    base_ = static_cast<char*>(base);
    EXPECT_EQ(mprotect(base_ + data_bytes_, page, PROT_NONE), 0);
    data_ = reinterpret_cast<float*>(base_ + data_bytes_ - bytes);
    std::memcpy(data_, m.data().data(), bytes);
  }
  ~GuardedMatrix() { munmap(base_, map_bytes_); }
  GuardedMatrix(const GuardedMatrix&) = delete;
  GuardedMatrix& operator=(const GuardedMatrix&) = delete;

  MatrixView view() const { return MatrixView(data_, rows_, cols_); }
  Matrix copy() const { return ConstMatrixView(view()).to_matrix(); }

 private:
  std::size_t rows_, cols_, data_bytes_ = 0, map_bytes_ = 0;
  char* base_ = nullptr;
  float* data_ = nullptr;
};

// Every tile reads and writes exactly its operands' elements: with each
// operand ending at an inaccessible page, every row and lane block kind
// (4/2/1 rows, 8/4/2/1 lanes, inline and chunked) runs without faulting
// and gives the unguarded result.
TEST(ParallelOps, TilesTouchNothingPastTheirOperands) {
  ThreadGuard guard;
  set_compute_threads(4);
  std::uint64_t seed = 900;
  for (const std::size_t m : {1, 2, 3, 5, 7, 129}) {
    for (const std::size_t k : {1, 3, 33, 65}) {
      for (const std::size_t n : {1, 2, 3, 5, 7, 9, 13, 67}) {
        const Matrix x = rnd(m, k, ++seed), w = rnd(k, n, ++seed);
        const Matrix dz = rnd(m, n, ++seed), w_nk = rnd(n, k, ++seed);
        const std::string at = "m=" + std::to_string(m) +
                               " k=" + std::to_string(k) +
                               " n=" + std::to_string(n);
        const GuardedMatrix gx(x), gw(w), gdz(dz), gw_nk(w_nk);
        const GuardedMatrix xw(Matrix(m, n)), xt_dz(Matrix(k, n)),
            dz_wt(Matrix(m, n));
        matmul_into(gx.view(), gw.view(), xw.view());
        EXPECT_TRUE(bit_equal(xw.copy(), matmul(x, w))) << "X*W " << at;
        // X^T * dZ with X [m, k] read as the [k-row] operand: A = dZ^T's
        // partner, i.e. A [m, k], B [m, n] -> C [k, n].
        matmul_at_b_into(gx.view(), gdz.view(), xt_dz.view());
        EXPECT_TRUE(bit_equal(xt_dz.copy(), matmul_at_b(x, dz)))
            << "X^T*dZ " << at;
        matmul_a_bt_into(gx.view(), gw_nk.view(), dz_wt.view());
        EXPECT_TRUE(bit_equal(dz_wt.copy(), matmul_a_bt(x, w_nk)))
            << "dZ*W^T " << at;
      }
    }
  }
}

}  // namespace
}  // namespace gt
