#include "gpusim/device_group.hpp"

#include <gtest/gtest.h>

#include <cstddef>

namespace gt::gpusim {
namespace {

KernelStats kernel(double us) {
  KernelStats k;
  k.name = std::string("k");  // assigning the literal trips GCC 12's -Wrestrict
  k.latency_us = us;
  k.flops = 10;
  k.global_bytes = 100;
  k.blocks = 1;
  return k;
}

TEST(DeviceGroup, SingleDeviceMakespanIsSerialSum) {
  DeviceGroup g({.devices = 1});
  g.add_kernel(0, kernel(3.0));
  g.add_kernel(0, kernel(5.0));
  GroupStats s = g.finish();
  EXPECT_NEAR(s.makespan_us, 8.0, 1e-12);
  EXPECT_EQ(s.collectives, 0u);
  EXPECT_EQ(s.comm_bytes, 0u);
}

TEST(DeviceGroup, LanesRunInParallel) {
  DeviceGroup g({.devices = 2});
  g.add_kernel(0, kernel(4.0));
  g.add_kernel(1, kernel(7.0));
  GroupStats s = g.finish();
  EXPECT_NEAR(s.makespan_us, 7.0, 1e-12);  // slowest lane, not the sum
  EXPECT_NEAR(s.device_busy_us[0], 4.0, 1e-12);
  EXPECT_NEAR(s.device_busy_us[1], 7.0, 1e-12);
}

TEST(DeviceGroup, CollectiveBarriersBothLanes) {
  DeviceGroup g({.devices = 2});
  g.add_kernel(0, kernel(4.0));
  g.add_kernel(1, kernel(7.0));
  CollectiveCost c = g.all_reduce("sync", 1 << 20);
  ASSERT_GT(c.us, 0.0);
  g.add_kernel(0, kernel(2.0));
  g.add_kernel(1, kernel(1.0));
  GroupStats s = g.finish();
  // Phase 1 ends at max(4, 7) = 7; the collective runs alone; phase 2
  // adds max(2, 1) = 2 on top.
  EXPECT_NEAR(s.makespan_us, 7.0 + c.us + 2.0, 1e-9);
  EXPECT_EQ(s.collectives, 1u);
  EXPECT_NEAR(s.comm_us, c.us, 1e-12);
  EXPECT_EQ(s.comm_steps, c.steps);
  EXPECT_EQ(s.comm_bytes, c.bytes_on_wire);
}

TEST(DeviceGroup, SingleDeviceCollectiveIsDropped) {
  DeviceGroup g({.devices = 1});
  g.add_kernel(0, kernel(4.0));
  CollectiveCost c = g.all_reduce("sync", 1 << 20);
  EXPECT_EQ(c.us, 0.0);
  GroupStats s = g.finish();
  EXPECT_EQ(s.collectives, 0u);
  EXPECT_NEAR(s.makespan_us, 4.0, 1e-12);
}

TEST(DeviceGroup, DeviceTotalsAccumulate) {
  DeviceGroup g({.devices = 2});
  g.add_kernel(0, kernel(4.0));
  g.add_kernel(0, kernel(2.0));
  g.add_kernel(1, kernel(1.0));
  const auto& totals = g.device_totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_NEAR(totals[0].latency_us, 6.0, 1e-12);
  EXPECT_EQ(totals[0].flops, 20u);
  EXPECT_EQ(totals[0].blocks, 2u);
  EXPECT_EQ(totals[1].flops, 10u);
}

TEST(DeviceGroup, DeterministicAcrossRuns) {
  auto build = [] {
    DeviceGroup g({.devices = 4});
    for (std::size_t d = 0; d < 4; ++d)
      for (int i = 0; i < 3; ++i)
        g.add_kernel(d, kernel(1.0 + static_cast<double>(d) + 0.25 * i));
    g.all_gather("halo", {100, 200, 300, 400});
    for (std::size_t d = 0; d < 4; ++d) g.add_kernel(d, kernel(2.0));
    g.all_reduce("grad", 1 << 16);
    return g.finish();
  };
  GroupStats a = build();
  GroupStats b = build();
  EXPECT_EQ(a.makespan_us, b.makespan_us);  // bit-identical, not just close
  EXPECT_EQ(a.comm_us, b.comm_us);
  EXPECT_EQ(a.device_busy_us, b.device_busy_us);
}

}  // namespace
}  // namespace gt::gpusim
