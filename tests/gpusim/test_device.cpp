#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"

namespace gt::gpusim {
namespace {

DeviceConfig small_config() {
  DeviceConfig cfg;
  cfg.num_sms = 4;
  cfg.cache_bytes_per_sm = 1024;
  cfg.memory_capacity_bytes = 1 << 20;  // 1 MiB
  return cfg;
}

TEST(Device, AllocTracksMemory) {
  Device dev(small_config());
  auto a = dev.alloc_f32(100, 10, "a");
  EXPECT_EQ(dev.memory_stats().current_bytes, 100 * 10 * sizeof(float));
  auto b = dev.alloc_u32(50, "b");
  EXPECT_EQ(dev.memory_stats().current_bytes,
            100 * 10 * sizeof(float) + 50 * sizeof(std::uint32_t));
  dev.free(a);
  dev.free(b);
  EXPECT_EQ(dev.memory_stats().current_bytes, 0u);
  EXPECT_GT(dev.memory_stats().peak_bytes, 0u);
}

TEST(Device, OomThrows) {
  Device dev(small_config());
  EXPECT_THROW(dev.alloc_f32(1 << 20, 4, "huge"), GpuOomError);
}

TEST(Device, OomErrorCarriesSizes) {
  Device dev(small_config());
  try {
    dev.alloc_f32(1 << 20, 4, "huge");
    FAIL() << "expected GpuOomError";
  } catch (const GpuOomError& e) {
    EXPECT_EQ(e.requested_bytes, (1 << 20) * 4 * sizeof(float));
    EXPECT_EQ(e.available_bytes, 1u << 20);
  }
}

TEST(Device, UseAfterFreeThrows) {
  Device dev(small_config());
  auto a = dev.alloc_f32(2, 2, "a");
  dev.free(a);
  EXPECT_THROW(dev.f32(a), std::out_of_range);
  EXPECT_THROW(dev.free(a), std::out_of_range);
}

TEST(Device, BuffersHoldRealData) {
  Device dev(small_config());
  auto a = dev.alloc_f32(2, 3, "a");
  dev.f32(a)[4] = 2.5f;
  EXPECT_FLOAT_EQ(dev.f32(a)[4], 2.5f);
  EXPECT_EQ(dev.rows(a), 2u);
  EXPECT_EQ(dev.cols(a), 3u);
}

TEST(Device, BlocksRoundRobinOverSms) {
  Device dev(small_config());
  std::vector<std::size_t> sm_of_block;
  dev.run_kernel("probe", KernelCategory::kOther, 10, [&](BlockCtx& ctx) {
    sm_of_block.push_back(ctx.sm_id());
  });
  ASSERT_EQ(sm_of_block.size(), 10u);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(sm_of_block[b], b % 4);
}

TEST(Device, KernelStatsCountFlopsAndTraffic) {
  Device dev(small_config());
  auto buf = dev.alloc_f32(8, 16, "x");
  auto ks = dev.run_kernel("k", KernelCategory::kAggregation, 8,
                           [&](BlockCtx& ctx) {
                             ctx.load(buf, static_cast<std::uint32_t>(
                                               ctx.block_id()),
                                      64);
                             ctx.flops(100);
                           });
  EXPECT_EQ(ks.flops, 800u);
  EXPECT_EQ(ks.cache_loaded_bytes, 8 * 64u);
  EXPECT_EQ(ks.global_bytes, 8 * 64u);
  EXPECT_GT(ks.latency_us, 0.0);
  EXPECT_EQ(ks.blocks, 8u);
}

TEST(Device, SameRowOnDifferentSmsLoadsTwice) {
  // The cache-bloat mechanism: two blocks on different SMs touching the
  // same row each pay a fill.
  Device dev(small_config());
  auto buf = dev.alloc_f32(1, 16, "x");
  auto ks = dev.run_kernel("k", KernelCategory::kEdgeWeight, 2,
                           [&](BlockCtx& ctx) { ctx.load(buf, 0, 64); });
  EXPECT_EQ(ks.cache_loaded_bytes, 128u);
}

TEST(Device, SameRowOnSameSmHitsSecondTime) {
  DeviceConfig cfg = small_config();
  cfg.num_sms = 1;
  Device dev(cfg);
  auto buf = dev.alloc_f32(1, 16, "x");
  auto ks = dev.run_kernel("k", KernelCategory::kEdgeWeight, 2,
                           [&](BlockCtx& ctx) { ctx.load(buf, 0, 64); });
  EXPECT_EQ(ks.cache_loaded_bytes, 64u);
  EXPECT_EQ(ks.cache_hit_bytes, 64u);
}

TEST(Device, CachesResetBetweenKernels) {
  DeviceConfig cfg = small_config();
  cfg.num_sms = 1;
  Device dev(cfg);
  auto buf = dev.alloc_f32(1, 16, "x");
  dev.run_kernel("k1", KernelCategory::kOther, 1,
                 [&](BlockCtx& ctx) { ctx.load(buf, 0, 64); });
  auto ks = dev.run_kernel("k2", KernelCategory::kOther, 1,
                           [&](BlockCtx& ctx) { ctx.load(buf, 0, 64); });
  EXPECT_EQ(ks.cache_loaded_bytes, 64u);  // miss again: no cross-kernel reuse
}

TEST(Device, AtomicPenaltyIncreasesLatency) {
  Device dev(small_config());
  auto no_atomics = dev.run_kernel("a", KernelCategory::kOther, 4,
                                   [](BlockCtx& ctx) { ctx.flops(100); });
  auto with_atomics =
      dev.run_kernel("b", KernelCategory::kOther, 4, [](BlockCtx& ctx) {
        ctx.flops(100);
        ctx.atomic(1000);
      });
  EXPECT_GT(with_atomics.latency_us, no_atomics.latency_us);
  EXPECT_EQ(with_atomics.atomic_ops, 4000u);
}

TEST(Device, AllocInsideKernelForbidden) {
  Device dev(small_config());
  EXPECT_THROW(
      dev.run_kernel("bad", KernelCategory::kOther, 1,
                     [&](BlockCtx&) { dev.alloc_f32(1, 1, "inner"); }),
      std::logic_error);
}

TEST(Device, ProfileAccumulates) {
  Device dev(small_config());
  dev.run_kernel("a", KernelCategory::kAggregation, 1,
                 [](BlockCtx& ctx) { ctx.flops(10); });
  dev.run_kernel("b", KernelCategory::kCombination, 1,
                 [](BlockCtx& ctx) { ctx.flops(20); });
  dev.charge_kernel("c", KernelCategory::kFormatTranslate, 0, 1000);
  EXPECT_EQ(dev.profile().size(), 3u);
  auto agg = accumulate(dev.profile(), KernelCategory::kAggregation);
  EXPECT_EQ(agg.flops, 10u);
  auto total = accumulate(dev.profile());
  EXPECT_EQ(total.flops, 30u);
  EXPECT_GT(dev.profile_latency_us(), 0.0);
  dev.clear_profile();
  EXPECT_TRUE(dev.profile().empty());
}

TEST(Device, PhaseStampsProfileEntries) {
  Device dev(small_config());
  EXPECT_EQ(dev.phase(), KernelPhase::kOther);  // default outside FWP/BWP
  dev.run_kernel("warm", KernelCategory::kOther, 1, [](BlockCtx&) {});

  dev.set_phase(KernelPhase::kForward);
  dev.run_kernel("fwd_a", KernelCategory::kAggregation, 1,
                 [](BlockCtx& ctx) { ctx.flops(10); });
  dev.charge_kernel("fwd_b", KernelCategory::kFormatTranslate, 0, 100);

  dev.set_phase(KernelPhase::kBackward);
  dev.run_kernel("bwd_a", KernelCategory::kCombination, 1,
                 [](BlockCtx& ctx) { ctx.flops(20); });

  ASSERT_EQ(dev.profile().size(), 4u);
  EXPECT_EQ(dev.profile()[0].phase, KernelPhase::kOther);
  // Synthetic charges are stamped exactly like real launches.
  EXPECT_EQ(dev.profile()[1].phase, KernelPhase::kForward);
  EXPECT_EQ(dev.profile()[2].phase, KernelPhase::kForward);
  EXPECT_EQ(dev.profile()[3].phase, KernelPhase::kBackward);

  // Stamping is bookkeeping only: pricing and launch counting unchanged.
  EXPECT_EQ(dev.kernel_launch_count(), 3u);

  EXPECT_STREQ(to_string(KernelPhase::kOther), "other");
  EXPECT_STREQ(to_string(KernelPhase::kForward), "fwd");
  EXPECT_STREQ(to_string(KernelPhase::kBackward), "bwd");
}

TEST(Device, ChargeAllocOverheadAddsLatencyOnly) {
  Device dev(small_config());
  dev.charge_alloc_overhead("mallocs", 3);
  ASSERT_EQ(dev.profile().size(), 1u);
  EXPECT_DOUBLE_EQ(dev.profile()[0].latency_us,
                   3 * dev.config().cost.alloc_overhead_us);
  EXPECT_EQ(dev.profile()[0].flops, 0u);
}

TEST(Device, ResetPeak) {
  Device dev(small_config());
  auto a = dev.alloc_f32(100, 100, "a");
  dev.free(a);
  EXPECT_GT(dev.memory_stats().peak_bytes, 0u);
  dev.reset_peak();
  EXPECT_EQ(dev.memory_stats().peak_bytes, 0u);
}

void expect_same_memory(const MemoryStats& a, const MemoryStats& b) {
  EXPECT_EQ(a.current_bytes, b.current_bytes);
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
  EXPECT_EQ(a.capacity_bytes, b.capacity_bytes);
  EXPECT_EQ(a.alloc_count, b.alloc_count);
}

// A backend keeps one device and resets it at every batch attempt, so a
// reset device must be indistinguishable from a fresh one — including
// after an attempt whose kernel body threw and left the device inside its
// kernel.
TEST(Device, ResetAfterAThrowingKernelMatchesAFreshDevice) {
  Device dev(small_config());
  const BufferId kept = dev.alloc_f32(8, 4, "kept");
  std::fill(dev.f32(kept).begin(), dev.f32(kept).end(), 7.0f);
  const BufferId freed = dev.alloc_u32(16, "freed");
  dev.free(freed);
  dev.set_phase(KernelPhase::kBackward);
  dev.run_kernel("ok", KernelCategory::kOther, 4,
                 [](BlockCtx& ctx) { ctx.flops(1); });
  EXPECT_THROW(dev.run_kernel("boom", KernelCategory::kOther, 8,
                              [](BlockCtx& ctx) {
                                if (ctx.block_id() == 3)
                                  throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  // The throw left the device inside its kernel.
  EXPECT_THROW(dev.alloc_f32(1, 1, "x"), std::logic_error);

  dev.reset();
  const Device fresh(small_config());
  EXPECT_TRUE(dev.profile().empty());
  EXPECT_EQ(dev.kernel_launch_count(), 0u);
  EXPECT_EQ(dev.phase(), KernelPhase::kOther);
  expect_same_memory(dev.memory_stats(), fresh.memory_stats());
  EXPECT_THROW(dev.f32(kept), std::out_of_range);

  // Ids restart at 0, and a slot kept from before the reset comes back
  // zero-filled in the new shape.
  const BufferId a = dev.alloc_f32(4, 4, "a");
  EXPECT_EQ(a, 0u);
  for (float v : dev.f32(a)) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(dev.rows(a), 4u);
  const BufferId b = dev.alloc_u32(5, "b");
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(dev.buffer_bytes(b), 5 * sizeof(std::uint32_t));
  for (std::uint32_t v : dev.u32(b)) EXPECT_EQ(v, 0u);
  EXPECT_EQ(dev.alloc_f32(2, 2, "c"), 2u);
  dev.run_kernel("k", KernelCategory::kOther, 2,
                 [](BlockCtx& ctx) { ctx.flops(2); });
  EXPECT_EQ(dev.kernel_launch_count(), 1u);
  ASSERT_EQ(dev.profile().size(), 1u);
  EXPECT_EQ(dev.profile()[0].phase, KernelPhase::kOther);
  EXPECT_EQ(dev.memory_stats().alloc_count, 3u);
  EXPECT_EQ(dev.memory_stats().current_bytes,
            (16 + 4) * sizeof(float) + 5 * sizeof(std::uint32_t));
}

constexpr HostStorage kStorageKinds[] = {
    HostStorage::kZeroed, HostStorage::kUninitialized, HostStorage::kNone};

/// Requested/available bytes of the GpuOomError `alloc` throws.
template <typename Alloc>
std::pair<std::size_t, std::size_t> oom_sizes(Alloc&& alloc) {
  try {
    alloc();
  } catch (const GpuOomError& e) {
    return {e.requested_bytes, e.available_bytes};
  }
  ADD_FAILURE() << "expected GpuOomError";
  return {0, 0};
}

// The three host-storage kinds differ only in what the host holds: used,
// peak and allocation counts, buffer_bytes and the out-of-memory error are
// those of a zero-filled allocation of the same shape, before and after
// reset().
TEST(Device, EveryHostStorageKindAccountsLikeAZeroedBuffer) {
  for (const HostStorage kind : kStorageKinds) {
    Device zeroed(small_config());
    Device dev(small_config());
    for (int round = 0; round < 2; ++round) {
      const BufferId za = zeroed.alloc_f32(100, 10, "a");
      const BufferId a = dev.alloc_f32(100, 10, "a", kind);
      expect_same_memory(dev.memory_stats(), zeroed.memory_stats());
      EXPECT_EQ(dev.buffer_bytes(a), zeroed.buffer_bytes(za));
      EXPECT_EQ(dev.rows(a), 100u);
      EXPECT_EQ(dev.cols(a), 10u);
      zeroed.alloc_f32(7, 3, "b");
      dev.alloc_f32(7, 3, "b", kind);
      zeroed.free(za);
      dev.free(a);
      expect_same_memory(dev.memory_stats(), zeroed.memory_stats());
      EXPECT_EQ(oom_sizes([&] { dev.alloc_f32(1 << 20, 4, "huge", kind); }),
                oom_sizes([&] { zeroed.alloc_f32(1 << 20, 4, "huge"); }));
      expect_same_memory(dev.memory_stats(), zeroed.memory_stats());
      dev.reset();
      zeroed.reset();
    }
  }
}

// Every kind is one occurrence of the gpusim.alloc fault site, and a
// kind=oom entry surfaces as GpuOomError, also on a reset device.
TEST(Device, EveryHostStorageKindHitsTheAllocFaultSite) {
  for (const HostStorage kind : kStorageKinds) {
    Device dev(small_config());
    for (int round = 0; round < 2; ++round) {
      fault::FaultPlan plan =
          fault::FaultPlan::parse("gpusim.alloc@batch=0:layer=2");
      {
        fault::PlanScope scope(&plan, 0);
        dev.alloc_u32(4, "first");
        dev.alloc_f32(2, 2, "second", kind);
        EXPECT_THROW(dev.alloc_f32(2, 2, "third", kind),
                     fault::InjectedFault);
      }
      EXPECT_EQ(plan.injected(), 1u);
      EXPECT_EQ(dev.memory_stats().alloc_count, 2u);
      fault::FaultPlan oom =
          fault::FaultPlan::parse("gpusim.alloc@batch=0:kind=oom");
      {
        fault::PlanScope scope(&oom, 0);
        EXPECT_THROW(dev.alloc_f32(2, 2, "oom", kind), GpuOomError);
      }
      EXPECT_EQ(dev.memory_stats().alloc_count, 2u);
      dev.reset();
    }
  }
}

TEST(Device, FootprintBufferHasNoHostStorage) {
  Device dev(small_config());
  const BufferId f = dev.alloc_f32(8, 4, "footprint", HostStorage::kNone);
  EXPECT_THROW(dev.f32(f), std::logic_error);
  EXPECT_THROW(std::as_const(dev).f32(f), std::logic_error);
  // Kernels may still name it: its rows are modeled traffic.
  const KernelStats ks = dev.run_kernel(
      "k", KernelCategory::kOther, 2, [&](BlockCtx& ctx) {
        ctx.load(f, static_cast<std::uint32_t>(ctx.block_id()), 16);
      });
  EXPECT_EQ(ks.cache_loaded_bytes, 32u);
  // Its slot, reused after reset, holds a readable buffer again.
  dev.reset();
  const BufferId a = dev.alloc_f32(8, 4, "a");
  ASSERT_EQ(a, f);
  ASSERT_EQ(dev.f32(a).size(), 32u);
  for (float v : dev.f32(a)) EXPECT_EQ(v, 0.0f);
}

// In builds with assertions an unfilled buffer starts as NaN — on a fresh
// slot and on one reused after reset — so an element its writer misses
// shows up in the results. Release builds leave the storage unwritten.
TEST(Device, UninitializedBufferStartsAsNanUnderAssertions) {
  Device dev(small_config());
  const BufferId kept = dev.alloc_f32(6, 6, "kept");
  std::fill(dev.f32(kept).begin(), dev.f32(kept).end(), 1.0f);
  dev.reset();
  for (int round = 0; round < 2; ++round) {
    const BufferId u =
        dev.alloc_f32(4, 5, "u", HostStorage::kUninitialized);
    ASSERT_EQ(dev.f32(u).size(), 20u);
    if constexpr (kPoisonUninitialized) {
      for (float v : dev.f32(u)) EXPECT_TRUE(std::isnan(v));
    }
    dev.f32(u)[19] = 2.0f;  // the storage is writable either way
    dev.free(u);
  }
}

}  // namespace
}  // namespace gt::gpusim
