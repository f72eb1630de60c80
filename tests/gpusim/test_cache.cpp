#include "gpusim/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <list>
#include <stdexcept>
#include <unordered_map>

#include "util/rng.hpp"

namespace gt::gpusim {
namespace {

/// The original node-based model (std::list LRU + std::unordered_map),
/// kept here as the oracle the flat SmCache must match access for access.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool access(const CacheKey& key, std::size_t bytes) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hit_bytes += bytes;
      return true;
    }
    loaded_bytes += bytes;
    if (bytes > capacity_) return false;
    while (resident_bytes + bytes > capacity_ && !lru_.empty()) {
      resident_bytes -= lru_.back().second;
      map_.erase(lru_.back().first);
      lru_.pop_back();
    }
    lru_.emplace_front(key, bytes);
    map_[key] = lru_.begin();
    resident_bytes += bytes;
    return false;
  }

  void clear() {
    lru_.clear();
    map_.clear();
    resident_bytes = loaded_bytes = hit_bytes = 0;
  }

  std::size_t lines() const { return lru_.size(); }

  std::size_t resident_bytes = 0;
  std::size_t loaded_bytes = 0;
  std::size_t hit_bytes = 0;

 private:
  using Line = std::pair<CacheKey, std::size_t>;
  std::size_t capacity_;
  std::list<Line> lru_;
  std::unordered_map<CacheKey, std::list<Line>::iterator, CacheKeyHash> map_;
};

/// Drive both models with one seeded stream: a skewed key space (hot rows
/// recur, so hits, promotions and evictions all happen), line widths from
/// one float to oversized, periodic clears like kernel boundaries, and row
/// runs. A run is one access_rows() call on the flat model and `count`
/// per-row accesses on the reference. Four run shapes recur, so the same
/// run comes back with single accesses in between, and single accesses hit
/// and evict run lines. One shape fills a sixteenth of the cache, at
/// another width than buffer 0's single accesses; one fills a quarter of
/// it; one is wider than the cache; one streams oversized lines. Every
/// counter is compared after every operation. Adds the run calls that took
/// the splice to `*spliced`.
void expect_matches_reference(std::uint64_t seed, std::size_t capacity,
                              std::uint32_t key_space, std::size_t accesses,
                              std::size_t* spliced) {
  Xoshiro256 rng(seed);
  SmCache flat(capacity);
  ReferenceLru ref(capacity);
  const std::size_t widths[] = {4, 48, 64, 256, 2176, capacity + 1};
  struct RowRun {
    std::uint32_t buffer, first, count;
    std::size_t bytes;
  };
  const auto rows = [](std::size_t n) {
    return static_cast<std::uint32_t>(std::max<std::size_t>(n, 1));
  };
  const RowRun runs[] = {{0, 0, rows(capacity / (16 * 48)), 48},
                         {1, 3, rows(capacity / (4 * 64)), 64},
                         {2, 1, rows(capacity / 256 + 2), 256},
                         {0, 5, 2, capacity + 1}};
  std::size_t run_calls = 0;
  for (std::size_t a = 0; a < accesses; ++a) {
    if (rng.uniform(4000) == 0) {
      flat.clear();
      ref.clear();
    }
    if (rng.uniform(8) == 0) {
      const RowRun& r = runs[rng.uniform(8) < 5 ? 0 : rng.uniform(4)];
      flat.access_rows(r.buffer, r.first, r.count, r.bytes);
      for (std::uint32_t i = 0; i < r.count; ++i)
        ref.access(CacheKey{r.buffer, r.first + i, 0}, r.bytes);
      ++run_calls;
    } else {
      // Squaring a uniform draw skews toward low rows (the hot set).
      const std::uint64_t u = rng.uniform(key_space);
      const CacheKey key{static_cast<std::uint32_t>(rng.uniform(3)),
                         static_cast<std::uint32_t>(u * u / key_space),
                         static_cast<std::uint32_t>(rng.uniform(2))};
      // A line's width follows from its buffer and chunk, as in real
      // kernels, except for a rare oversized streaming access.
      const std::size_t bytes =
          rng.uniform(500) == 0 ? widths[5]
                                : widths[(key.buffer * 2 + key.chunk) % 5];
      ASSERT_EQ(flat.access(key, bytes), ref.access(key, bytes))
          << "access " << a << " seed " << seed;
    }
    ASSERT_EQ(flat.loaded_bytes(), ref.loaded_bytes)
        << "op " << a << " seed " << seed;
    ASSERT_EQ(flat.hit_bytes(), ref.hit_bytes);
    ASSERT_EQ(flat.resident_bytes(), ref.resident_bytes);
    ASSERT_EQ(flat.resident_lines(), ref.lines());
  }
  // Both paths of access_rows must have run for the stream to mean anything.
  EXPECT_GT(flat.spliced_runs(), 0u) << "seed " << seed;
  EXPECT_LT(flat.spliced_runs(), run_calls) << "seed " << seed;
  *spliced += flat.spliced_runs();
}

TEST(SmCache, MissThenHit) {
  SmCache cache(1024);
  EXPECT_FALSE(cache.access({0, 0, 0}, 100));
  EXPECT_TRUE(cache.access({0, 0, 0}, 100));
  EXPECT_EQ(cache.loaded_bytes(), 100u);
  EXPECT_EQ(cache.hit_bytes(), 100u);
}

TEST(SmCache, DistinctKeysAreDistinctLines) {
  SmCache cache(1024);
  EXPECT_FALSE(cache.access({0, 0, 0}, 10));
  EXPECT_FALSE(cache.access({0, 1, 0}, 10));
  EXPECT_FALSE(cache.access({1, 0, 0}, 10));
  EXPECT_FALSE(cache.access({0, 0, 1}, 10));
  EXPECT_EQ(cache.loaded_bytes(), 40u);
  EXPECT_EQ(cache.resident_bytes(), 40u);
}

TEST(SmCache, LruEviction) {
  SmCache cache(100);
  cache.access({0, 0, 0}, 60);
  cache.access({0, 1, 0}, 40);
  // Touch row 0 so row 1 becomes LRU.
  cache.access({0, 0, 0}, 60);
  // New line evicts row 1 (LRU), not row 0.
  cache.access({0, 2, 0}, 40);
  EXPECT_TRUE(cache.access({0, 0, 0}, 60));   // still resident
  EXPECT_FALSE(cache.access({0, 1, 0}, 40));  // was evicted
}

TEST(SmCache, OversizedLineStreamsWithoutResidency) {
  SmCache cache(100);
  EXPECT_FALSE(cache.access({0, 0, 0}, 500));
  EXPECT_EQ(cache.loaded_bytes(), 500u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  // Not retained: next access misses again.
  EXPECT_FALSE(cache.access({0, 0, 0}, 500));
}

TEST(SmCache, ClearResetsEverything) {
  SmCache cache(100);
  cache.access({0, 0, 0}, 50);
  cache.access({0, 0, 0}, 50);
  cache.clear();
  EXPECT_EQ(cache.loaded_bytes(), 0u);
  EXPECT_EQ(cache.hit_bytes(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_FALSE(cache.access({0, 0, 0}, 50));
}

TEST(SmCache, ResidentNeverExceedsCapacity) {
  SmCache cache(256);
  for (std::uint32_t r = 0; r < 100; ++r) {
    cache.access({0, r, 0}, 48);
    EXPECT_LE(cache.resident_bytes(), 256u);
  }
}

TEST(SmCache, HitDoesNotResizeTheResidentLine) {
  // A hit is charged the bytes the caller asks for but keeps the width the
  // line was loaded with, so eviction accounting is unaffected.
  SmCache cache(100);
  cache.access({0, 0, 0}, 40);
  EXPECT_TRUE(cache.access({0, 0, 0}, 90));
  EXPECT_EQ(cache.hit_bytes(), 90u);
  EXPECT_EQ(cache.resident_bytes(), 40u);
}

TEST(SmCache, RejectsACapacityWiderThan32Bits) {
  // A retained line is stored with a 32-bit width.
  EXPECT_THROW(SmCache(std::size_t{1} << 32), std::invalid_argument);
  EXPECT_NO_THROW(SmCache(0xffffffffu));
}

TEST(SmCache, RepeatedRowRunIsOneSpliceWithPerRowCounters) {
  // The dense Apply kernels' pattern: each block loads its own input row,
  // then streams every weight row. From the second block on, the weight
  // rows are resident and contiguous, so the run is one splice.
  SmCache cache(4096);
  for (std::uint32_t block = 0; block < 4; ++block) {
    EXPECT_FALSE(cache.access({7, block, 0}, 256));
    cache.access_rows(3, 0, 16, 32);
  }
  EXPECT_EQ(cache.spliced_runs(), 3u);
  EXPECT_EQ(cache.loaded_bytes(), 4 * 256 + 16 * 32u);
  EXPECT_EQ(cache.hit_bytes(), 3 * 16 * 32u);
  // A single access to a run line stops the tracking: the next run goes
  // line by line and is tracked again.
  EXPECT_TRUE(cache.access({3, 5, 0}, 32));
  cache.access_rows(3, 0, 16, 32);
  EXPECT_EQ(cache.spliced_runs(), 3u);
  cache.access_rows(3, 0, 16, 32);
  EXPECT_EQ(cache.spliced_runs(), 4u);
  EXPECT_EQ(cache.hit_bytes(), 5 * 16 * 32u + 32u);
}

TEST(SmCache, MatchesReferenceLruOnRandomStreams) {
  // Small caches (heavy eviction) through caches holding thousands of
  // lines (table growth and long probe runs).
  std::size_t spliced = 0;
  expect_matches_reference(1, 512, 64, 60000, &spliced);
  expect_matches_reference(2, 4096, 1024, 60000, &spliced);
  expect_matches_reference(3, 128 * 1024, 8192, 60000, &spliced);
  expect_matches_reference(4, 128 * 1024, 200000, 60000, &spliced);
  std::printf("row runs answered by the splice: %zu\n", spliced);
}

TEST(SmCache, ClearKeepsTheTableAndForgetsEveryLine) {
  SmCache cache(64 * 1024);
  for (std::uint32_t r = 0; r < 1000; ++r) cache.access({0, r, 0}, 4);
  const std::size_t slots = cache.table_slots();
  EXPECT_EQ(cache.resident_lines(), 1000u);
  EXPECT_GE(slots, 2000u);  // load factor <= 1/2
  cache.clear();
  EXPECT_EQ(cache.table_slots(), slots);
  EXPECT_EQ(cache.resident_lines(), 0u);
  for (std::uint32_t r = 0; r < 1000; ++r)
    EXPECT_FALSE(cache.access({0, r, 0}, 4)) << r;
  EXPECT_EQ(cache.table_slots(), slots);
}

TEST(SmCache, ManyClearsStayConsistent) {
  // Per-kernel clears are epoch bumps; lines from one epoch must never be
  // visible in the next.
  SmCache cache(1024);
  for (std::uint32_t k = 0; k < 5000; ++k) {
    EXPECT_FALSE(cache.access({k % 7, k % 3, 0}, 64));
    EXPECT_TRUE(cache.access({k % 7, k % 3, 0}, 64));
    cache.clear();
  }
}

}  // namespace
}  // namespace gt::gpusim
