// Kernel microbenchmarks (google-benchmark): wall-clock cost of the
// simulator-backed kernels across problem sizes. These measure the
// *reproduction's* execution speed (how fast the simulation runs), not the
// simulated GPU latency — useful for keeping the test/bench suite fast.
//
// Every case is registered with UseRealTime(). Most kernels run their
// blocks on the compute pool, so google-benchmark's default (the main
// thread's CPU time) would leave the work out of the measured time, inflate
// items/s, and size the iteration count from that small number.
#include <benchmark/benchmark.h>

#include "graph/convert.hpp"
#include "kernels/dl_approach.hpp"
#include "kernels/graph_approach.hpp"
#include "kernels/napa.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace gt;

struct Problem {
  Coo coo;
  Csr csr;
  Matrix x;
  Vid n_dst;
};

Problem make_problem(Vid n_vertices, Vid n_dst, Eid edges, std::size_t feat) {
  Xoshiro256 rng(1);
  Problem p;
  p.coo.num_vertices = n_vertices;
  for (Eid e = 0; e < edges; ++e) {
    p.coo.src.push_back(static_cast<Vid>(rng.uniform(n_vertices)));
    p.coo.dst.push_back(static_cast<Vid>(rng.uniform(n_dst)));
  }
  p.csr = coo_to_csr(p.coo);
  p.x = Matrix::uniform(n_vertices, feat, rng);
  p.n_dst = n_dst;
  return p;
}

void BM_NapaPull(benchmark::State& state) {
  Problem p = make_problem(2000, 500, state.range(0), state.range(1));
  gpusim::Device dev;
  auto g = kernels::upload_csr(dev, p.csr, p.n_dst);
  auto x = kernels::upload_matrix(dev, p.x, "x");
  for (auto _ : state) {
    auto out = kernels::napa::pull(dev, g, x, gpusim::kInvalidBuffer,
                                   kernels::AggMode::kMean,
                                   kernels::EdgeWeightMode::kNone);
    benchmark::DoNotOptimize(dev.f32(out).data());
    dev.free(out);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NapaPull)
    ->Args({5000, 16})->Args({5000, 128})->Args({20000, 16})
    ->UseRealTime();

void BM_NapaNeighborApply(benchmark::State& state) {
  Problem p = make_problem(2000, 500, state.range(0), state.range(1));
  gpusim::Device dev;
  auto g = kernels::upload_csr(dev, p.csr, p.n_dst);
  auto x = kernels::upload_matrix(dev, p.x, "x");
  for (auto _ : state) {
    auto w = kernels::napa::neighbor_apply(dev, g, x,
                                           kernels::EdgeWeightMode::kDot);
    benchmark::DoNotOptimize(dev.f32(w).data());
    dev.free(w);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NapaNeighborApply)
    ->Args({5000, 16})->Args({5000, 128})
    ->UseRealTime();

void BM_GraphSpmm(benchmark::State& state) {
  Problem p = make_problem(2000, 500, state.range(0), state.range(1));
  gpusim::Device dev;
  auto coo = kernels::upload_coo(dev, p.coo, p.n_dst);
  auto csr = kernels::graphsim::translate_to_csr(dev, coo);
  auto x = kernels::upload_matrix(dev, p.x, "x");
  for (auto _ : state) {
    auto out = kernels::graphsim::spmm_edgewise(
        dev, csr, x, gpusim::kInvalidBuffer, kernels::AggMode::kMean,
        kernels::EdgeWeightMode::kNone);
    benchmark::DoNotOptimize(dev.f32(out).data());
    dev.free(out);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GraphSpmm)->Args({5000, 16})->Args({5000, 128})->UseRealTime();

void BM_DlGatherScatter(benchmark::State& state) {
  Problem p = make_problem(2000, 500, state.range(0), state.range(1));
  gpusim::Device dev;
  auto csr = kernels::upload_csr(dev, p.csr, p.n_dst);
  auto x = kernels::upload_matrix(dev, p.x, "x");
  for (auto _ : state) {
    gpusim::BufferId weights = gpusim::kInvalidBuffer;
    auto out = kernels::dl::forward_aggregate(dev, csr, x,
                                              kernels::AggMode::kMean,
                                              kernels::EdgeWeightMode::kNone,
                                              &weights);
    benchmark::DoNotOptimize(dev.f32(out).data());
    dev.free(out);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DlGatherScatter)
    ->Args({5000, 16})->Args({5000, 128})
    ->UseRealTime();

void BM_FormatTranslation(benchmark::State& state) {
  Problem p = make_problem(2000, 500, state.range(0), 4);
  gpusim::Device dev;
  auto coo = kernels::upload_coo(dev, p.coo, p.n_dst);
  for (auto _ : state) {
    auto csr = kernels::graphsim::translate_to_csr(dev, coo);
    benchmark::DoNotOptimize(dev.u32(csr.col_idx).data());
    kernels::free_graph(dev, csr);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FormatTranslation)->Arg(5000)->Arg(50000)->UseRealTime();

void BM_ApplyDense(benchmark::State& state) {
  Xoshiro256 rng(2);
  Matrix x = Matrix::uniform(state.range(0), state.range(1), rng);
  Matrix w = Matrix::glorot(state.range(1), 8, rng);
  Matrix b(1, 8);
  gpusim::Device dev;
  auto xb = kernels::upload_matrix(dev, x, "x");
  auto wb = kernels::upload_matrix(dev, w, "w");
  auto bb = kernels::upload_matrix(dev, b, "b");
  for (auto _ : state) {
    auto out = kernels::napa::apply_dense(dev, xb, wb, bb, true);
    benchmark::DoNotOptimize(dev.f32(out).data());
    dev.free(out);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ApplyDense)->Args({1000, 16})->Args({1000, 544})->UseRealTime();

// The layer-0 products of the two training workloads (perfbench
// train-wikitalk and train-social-cached: 544-wide features, hidden 8):
// the forward X·W and the weight gradient X^T·dZ at 1200 and 3440 batch
// rows. Args: {rows, compute threads}.
void BM_Layer0Forward(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(5);
  const Matrix x = Matrix::uniform(rows, 544, rng);
  const Matrix w = Matrix::uniform(544, 8, rng);
  Matrix out(rows, 8);
  set_compute_threads(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    matmul_into(x, w, out);
    benchmark::DoNotOptimize(out.data().data());
  }
  set_compute_threads(0);
  state.SetItemsProcessed(state.iterations() * 2 * rows * 544 * 8);
}
BENCHMARK(BM_Layer0Forward)
    ->Args({1200, 1})->Args({1200, 2})->Args({3440, 1})->Args({3440, 2})
    ->UseRealTime();

void BM_Layer0WeightGrad(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(6);
  const Matrix x = Matrix::uniform(rows, 544, rng);
  const Matrix dz = Matrix::uniform(rows, 8, rng);
  Matrix dw(544, 8);
  set_compute_threads(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    matmul_at_b_into(x, dz, dw);
    benchmark::DoNotOptimize(dw.data().data());
  }
  set_compute_threads(0);
  state.SetItemsProcessed(state.iterations() * 2 * rows * 544 * 8);
}
BENCHMARK(BM_Layer0WeightGrad)
    ->Args({1200, 1})->Args({1200, 2})->Args({3440, 1})->Args({3440, 2})
    ->UseRealTime();

// A large square product at 1, 2 and 8 compute threads (wall-clock
// scaling check; identical bits either way).
void BM_MatmulThreads(benchmark::State& state) {
  Xoshiro256 rng(3);
  const Matrix a = Matrix::uniform(768, 512, rng);
  const Matrix b = Matrix::uniform(512, 512, rng);
  Matrix c(768, 512);
  set_compute_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  set_compute_threads(0);
  state.SetItemsProcessed(state.iterations() * 2 * a.rows() * a.cols() *
                          b.cols());
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
