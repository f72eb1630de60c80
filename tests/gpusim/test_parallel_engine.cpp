// Parallel kernel-engine determinism: run_kernel shards blocks by SM onto
// compute-pool workers, and the contract is that both the buffer contents
// and the priced KernelStats are bit-identical to serial execution for
// BlockSafety::kParallel kernels, at every thread count.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gpusim/device.hpp"
#include "util/parallel.hpp"

namespace gt::gpusim {
namespace {

DeviceConfig config() {
  DeviceConfig cfg;
  cfg.num_sms = 8;
  cfg.cache_bytes_per_sm = 4096;
  return cfg;
}

/// Restore the environment/hardware thread default when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { set_compute_threads(0); }
};

struct KernelRun {
  KernelStats stats;
  std::vector<float> out;
};

/// A destination-disjoint kernel: block b owns row b of the output and
/// touches per-SM cache state through load/store, so both the math and the
/// simulator bookkeeping are exercised.
KernelRun run_disjoint_kernel(std::size_t threads) {
  set_compute_threads(threads);
  Device dev(config());
  const std::size_t rows = 37, cols = 16;  // rows % num_sms != 0 on purpose
  auto in = dev.alloc_f32(rows, cols, "in");
  auto out = dev.alloc_f32(rows, cols, "out");
  {
    auto span = dev.f32(in);
    for (std::size_t i = 0; i < span.size(); ++i)
      span[i] = static_cast<float>(i % 97) * 0.25f;
  }
  auto src = dev.f32(in);
  auto dst = dev.f32(out);
  KernelRun run;
  run.stats = dev.run_kernel(
      "disjoint", KernelCategory::kAggregation, rows,
      [&](BlockCtx& ctx) {
        const auto r = static_cast<std::uint32_t>(ctx.block_id());
        ctx.load(in, r, cols * sizeof(float));
        for (std::size_t c = 0; c < cols; ++c)
          dst[r * cols + c] = src[r * cols + c] * 2.0f + 1.0f;
        ctx.flops(2 * cols);
        ctx.store(out, r, cols * sizeof(float));
      },
      BlockSafety::kParallel);
  run.out.assign(dst.begin(), dst.end());
  return run;
}

TEST(ParallelEngine, DisjointKernelBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const KernelRun serial = run_disjoint_kernel(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const KernelRun parallel = run_disjoint_kernel(threads);
    EXPECT_EQ(parallel.stats.latency_us, serial.stats.latency_us)
        << threads << " threads";
    EXPECT_EQ(parallel.stats.flops, serial.stats.flops);
    EXPECT_EQ(parallel.stats.global_bytes, serial.stats.global_bytes);
    EXPECT_EQ(parallel.stats.cache_loaded_bytes,
              serial.stats.cache_loaded_bytes);
    EXPECT_EQ(parallel.stats.cache_hit_bytes, serial.stats.cache_hit_bytes);
    EXPECT_EQ(parallel.stats.atomic_ops, serial.stats.atomic_ops);
    EXPECT_EQ(parallel.stats.blocks, serial.stats.blocks);
    ASSERT_EQ(parallel.out.size(), serial.out.size());
    EXPECT_EQ(0, std::memcmp(parallel.out.data(), serial.out.data(),
                             serial.out.size() * sizeof(float)))
        << threads << " threads";
  }
}

TEST(ParallelEngine, CacheStateMatchesSerialRoundRobinAssignment) {
  // Per-SM LRU caches start each kernel cold, so hits come from blocks of
  // the *same SM* re-reading rows earlier blocks loaded. That reuse order
  // only survives parallel execution because block b always maps to SM
  // b % num_sms and one host thread runs each SM's blocks in block order.
  ThreadGuard guard;
  auto run = [](std::size_t threads) {
    set_compute_threads(threads);
    Device dev(config());
    auto buf = dev.alloc_f32(128, 64, "x");
    return dev.run_kernel(
        "reuse", KernelCategory::kAggregation, 64,
        [&](BlockCtx& ctx) {
          // Every block reads its SM's shared row (hits after the SM's
          // first block) and its own row (always a miss), stressing the
          // LRU with more rows than the 4 KiB per-SM cache can hold.
          ctx.load(buf, static_cast<std::uint32_t>(ctx.sm_id()), 256);
          ctx.load(buf, static_cast<std::uint32_t>(8 + ctx.block_id()), 256);
        },
        BlockSafety::kParallel);
  };
  const KernelStats serial = run(1);
  const KernelStats parallel = run(8);
  EXPECT_GT(serial.cache_hit_bytes, 0u);
  EXPECT_EQ(parallel.cache_hit_bytes, serial.cache_hit_bytes);
  EXPECT_EQ(parallel.cache_loaded_bytes, serial.cache_loaded_bytes);
  EXPECT_EQ(parallel.latency_us, serial.latency_us);
}

TEST(ParallelEngine, SerialSafetyNeverUsesThePool) {
  // A kSerial kernel may mutate shared state without synchronization; the
  // engine must run it on the calling thread even when the pool exists.
  ThreadGuard guard;
  set_compute_threads(8);
  Device dev(config());
  std::vector<std::size_t> order;  // unsynchronized on purpose
  dev.run_kernel(
      "serial", KernelCategory::kOther, 32,
      [&](BlockCtx& ctx) { order.push_back(ctx.block_id()); },
      BlockSafety::kSerial);
  ASSERT_EQ(order.size(), 32u);
  for (std::size_t b = 0; b < order.size(); ++b) EXPECT_EQ(order[b], b);
}

}  // namespace
}  // namespace gt::gpusim
