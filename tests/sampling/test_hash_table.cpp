#include "sampling/hash_table.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <unordered_set>

namespace gt::sampling {
namespace {

TEST(VidHashTable, DenseInsertionOrderIds) {
  VidHashTable t;
  EXPECT_EQ(t.insert_or_get(100), 0u);
  EXPECT_EQ(t.insert_or_get(5), 1u);
  EXPECT_EQ(t.insert_or_get(100), 0u);  // existing
  EXPECT_EQ(t.insert_or_get(42), 2u);
  EXPECT_EQ(t.size(), 3u);
  auto order = t.insertion_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 100u);
  EXPECT_EQ(order[1], 5u);
  EXPECT_EQ(order[2], 42u);
}

TEST(VidHashTable, IsNewFlag) {
  VidHashTable t;
  bool is_new = false;
  t.insert_or_get(9, &is_new);
  EXPECT_TRUE(is_new);
  t.insert_or_get(9, &is_new);
  EXPECT_FALSE(is_new);
}

TEST(VidHashTable, LookupMissingReturnsInvalid) {
  VidHashTable t;
  t.insert_or_get(1);
  EXPECT_EQ(t.lookup(1), 0u);
  EXPECT_EQ(t.lookup(2), kInvalidVid);
}

TEST(VidHashTable, GrowthAndClearKeepEveryMapping) {
  // Enough keys to grow every stripe's table several times, including
  // keys that share a stripe and collide within it; then a clear and a
  // reinsert in another order must forget the old ids entirely.
  for (std::size_t stripes : {std::size_t{1}, std::size_t{64}}) {
    VidHashTable t(stripes);
    const Vid n = 5000;
    for (Vid i = 0; i < n; ++i) EXPECT_EQ(t.insert_or_get(i * 64 + 7), i);
    for (Vid i = 0; i < n; ++i) EXPECT_EQ(t.lookup(i * 64 + 7), i);
    EXPECT_EQ(t.lookup(8), kInvalidVid);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    for (Vid i = 0; i < n; i += 2) EXPECT_EQ(t.lookup(i * 64 + 7), kInvalidVid);
    for (Vid i = n; i-- > n / 2;)
      EXPECT_EQ(t.insert_or_get(i * 64 + 7), n - 1 - i);
    EXPECT_EQ(t.lookup(7), kInvalidVid);
    EXPECT_EQ(t.lookup((n - 1) * 64 + 7), 0u);
    EXPECT_EQ(t.size(), n / 2);
  }
}

TEST(VidHashTable, RejectsNonPowerOfTwoStripes) {
  EXPECT_THROW(VidHashTable(3), std::invalid_argument);
}

TEST(VidHashTable, ConcurrentInsertsAreConsistent) {
  VidHashTable t;
  constexpr int kThreads = 4;
  constexpr Vid kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t] {
      for (Vid v = 0; v < kPerThread; ++v) t.insert_or_get(v % 500);
    });
  }
  for (auto& th : threads) th.join();
  // Exactly the distinct keys, densely numbered.
  EXPECT_EQ(t.size(), 500u);
  std::unordered_set<Vid> ids;
  for (Vid v = 0; v < 500; ++v) {
    const Vid id = t.lookup(v);
    EXPECT_LT(id, 500u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 500u);
  // insertion_order is the inverse mapping.
  auto order = t.insertion_order();
  for (Vid v = 0; v < 500; ++v) EXPECT_EQ(t.lookup(order[v]), v);
}

TEST(VidHashTable, ContentionCountersTrack) {
  VidHashTable t;
  t.insert_or_get(1);
  t.lookup(1);
  EXPECT_EQ(t.lock_acquisitions(), 2u);
  t.reset_contention_counters();
  EXPECT_EQ(t.lock_acquisitions(), 0u);
  EXPECT_EQ(t.contended_acquisitions(), 0u);
}

}  // namespace
}  // namespace gt::sampling
