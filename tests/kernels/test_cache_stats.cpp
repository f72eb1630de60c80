// Golden SM-cache statistics: the modeled per-kernel cache traffic of the
// three kernel families is a fixed function of the access streams they
// issue. The expected digests below were recorded from the original
// node-based (std::list + std::unordered_map) LRU model; any change to the
// SmCache representation must reproduce them bit for bit. A deliberate
// change to the cache *model* (capacity, keying, replacement) must re-record
// them and say so.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "kernel_test_util.hpp"
#include "kernels/dl_approach.hpp"
#include "kernels/graph_approach.hpp"
#include "kernels/napa.hpp"

namespace gt::kernels {
namespace {

using testing::LayerProblem;
using testing::make_problem;

/// FNV-1a over every modeled field of a profile, latency as raw bits.
std::uint64_t profile_digest(const std::vector<gpusim::KernelStats>& profile) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& k : profile) {
    for (char c : k.name) mix(static_cast<unsigned char>(c));
    mix(std::bit_cast<std::uint64_t>(k.latency_us));
    mix(k.flops);
    mix(k.global_bytes);
    mix(k.cache_loaded_bytes);
    mix(k.cache_hit_bytes);
    mix(k.atomic_ops);
    mix(k.blocks);
  }
  return h;
}

/// A few SMs with small caches, so every kernel below evicts, and a graph
/// large enough that each SM sees thousands of distinct lines of mixed
/// widths (whole rows, single floats, hidden-width rows).
gpusim::DeviceConfig tight_config() {
  gpusim::DeviceConfig cfg;
  cfg.num_sms = 6;
  cfg.cache_bytes_per_sm = 12 * 1024;
  return cfg;
}

LayerProblem problem() {
  return make_problem(/*seed=*/2024, /*n_vertices=*/1500, /*n_dst=*/400,
                      /*n_edges=*/9000, /*feat=*/48, /*hidden=*/12);
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Run `sequence` (uploads, clear_profile, kernels; returns the buffer ids
/// it allocated) on one device, reset the device and run it again: both
/// runs must give the golden digest, and the reset run the same buffer ids
/// and memory stats as the first — a reset device replays like a fresh one.
template <class Sequence>
void expect_golden_across_reset(const char* golden, Sequence sequence) {
  gpusim::Device dev(tight_config());
  const std::vector<gpusim::BufferId> ids = sequence(dev);
  const gpusim::MemoryStats mem = dev.memory_stats();
  EXPECT_GT(gpusim::accumulate(dev.profile()).cache_hit_bytes, 0u);
  EXPECT_EQ(hex(profile_digest(dev.profile())), golden);

  dev.reset();
  EXPECT_EQ(sequence(dev), ids);
  EXPECT_EQ(hex(profile_digest(dev.profile())), golden);
  const gpusim::MemoryStats again = dev.memory_stats();
  EXPECT_EQ(again.current_bytes, mem.current_bytes);
  EXPECT_EQ(again.peak_bytes, mem.peak_bytes);
  EXPECT_EQ(again.alloc_count, mem.alloc_count);
}

TEST(CacheStatsGolden, NapaForwardAndBackward) {
  const LayerProblem p = problem();
  expect_golden_across_reset("0x9369bd9a5d1cd714", [&](gpusim::Device& dev) {
    DeviceCsr dcsr = upload_csr(dev, p.csr, p.n_dst);
    DeviceCsc dcsc = upload_csc(dev, p.csr, p.n_dst);
    auto x = upload_matrix(dev, p.x, "x");
    auto w = upload_matrix(dev, p.w, "w");
    auto b = upload_matrix(dev, p.b, "b");
    dev.clear_profile();

    const auto g = EdgeWeightMode::kDot;
    const auto f = AggMode::kMean;
    auto weights = napa::neighbor_apply(dev, dcsr, x, g);
    auto aggr = napa::pull(dev, dcsr, x, weights, f, g);
    gpusim::BufferId pre = gpusim::kInvalidBuffer;
    auto y = napa::apply_dense(dev, aggr, w, b, /*relu=*/true, &pre);
    auto dense = napa::apply_dense_backward(dev, aggr, w, pre, y, true);
    auto dx = napa::pull_backward(dev, dcsr, dcsc, x, weights, dense.dx, f, g);
    napa::neighbor_apply_backward(dev, dcsr, x, dense.dx, dx, f, g);
    return std::vector<gpusim::BufferId>{
        x, w, b, weights, aggr, pre, y, dense.dw, dense.db, dense.dx, dx};
  });
}

TEST(CacheStatsGolden, NapaApplyWeightWiderThanTheSmCache) {
  // W is 48 rows x 320 B = 15 KiB against a 12 KiB SM cache, so a block's
  // weight-row run evicts its own first rows and is never tracked: every
  // load_rows call of the four weight-row streams takes the per-line path
  // (and misses). The bias row of apply_bias_act is what hits.
  const LayerProblem p = make_problem(/*seed=*/2024, /*n_vertices=*/1500,
                                      /*n_dst=*/400, /*n_edges=*/9000,
                                      /*feat=*/48, /*hidden=*/80);
  expect_golden_across_reset("0x7d431a2647e2a251", [&](gpusim::Device& dev) {
    auto x = upload_matrix(dev, p.x, "x");
    auto w = upload_matrix(dev, p.w, "w");
    auto b = upload_matrix(dev, p.b, "b");
    dev.clear_profile();

    gpusim::BufferId pre = gpusim::kInvalidBuffer;
    auto y = napa::apply_dense(dev, x, w, b, /*relu=*/true, &pre);
    auto dense = napa::apply_dense_backward(dev, x, w, pre, y, true);
    auto z = napa::apply_matmul(dev, x, w);
    auto act = napa::apply_bias_act(dev, z, b, /*relu=*/false);
    auto mm = napa::apply_matmul_backward(dev, x, w, act);
    return std::vector<gpusim::BufferId>{x,        w, b,   pre,   y,
                                         dense.dw, dense.db, dense.dx,
                                         z,        act,      mm.dw, mm.dx};
  });
}

TEST(CacheStatsGolden, GraphApproachEdgewise) {
  const LayerProblem p = problem();
  expect_golden_across_reset("0x0f25f9f4b21f33af", [&](gpusim::Device& dev) {
    DeviceCoo coo = upload_coo(dev, p.coo, p.n_dst);
    auto x = upload_matrix(dev, p.x, "x");
    dev.clear_profile();

    const auto g = EdgeWeightMode::kElemProduct;
    const auto f = AggMode::kSum;
    DeviceCsr csr = graphsim::translate_to_csr(dev, coo);
    auto weights = graphsim::sddmm_edgewise(dev, coo, x, g);
    auto out = graphsim::spmm_edgewise(dev, csr, x, weights, f, g);
    auto dx = graphsim::backward_edgewise(dev, coo, csr, x, weights, out, f, g);
    return std::vector<gpusim::BufferId>{x, weights, out, dx};
  });
}

TEST(CacheStatsGolden, DlApproachDense) {
  const LayerProblem p = problem();
  expect_golden_across_reset("0x953d61a7d02d9138", [&](gpusim::Device& dev) {
    DeviceCsr dcsr = upload_csr(dev, p.csr, p.n_dst);
    auto x = upload_matrix(dev, p.x, "x");
    dev.clear_profile();

    const auto g = EdgeWeightMode::kDot;
    const auto f = AggMode::kMean;
    gpusim::BufferId weights = gpusim::kInvalidBuffer;
    auto out = dl::forward_aggregate(dev, dcsr, x, f, g, &weights);
    auto dx = dl::backward_aggregate(dev, dcsr, x, weights, out, f, g);
    auto groups =
        dl::aggregate_neighbor_groups(dev, dcsr, x, AggMode::kSum, 4);
    return std::vector<gpusim::BufferId>{x, weights, out, dx, groups};
  });
}

}  // namespace
}  // namespace gt::kernels
