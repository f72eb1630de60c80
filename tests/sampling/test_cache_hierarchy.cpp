#include "sampling/cache_hierarchy.hpp"

#include <gtest/gtest.h>

#include "datasets/catalog.hpp"
#include "graph/convert.hpp"
#include "kernels/common.hpp"
#include "pipeline/executor.hpp"
#include "sampling/embedding_cache.hpp"

namespace gt::sampling {
namespace {

// Tiny deterministic graph: vertex v appears (10 - v) times as a sampled
// source, so the degree-pinned selection order is exactly 0, 1, 2, ...
struct TinyEnv {
  static constexpr std::size_t kDim = 4;
  Csr csr;
  EmbeddingTable table{10, kDim, 3};

  TinyEnv() {
    Coo coo;
    coo.num_vertices = 10;
    for (Vid v = 0; v < 10; ++v) {
      for (Vid k = 0; v + k < 10; ++k) {
        coo.src.push_back(v);
        coo.dst.push_back((v + k) % 10);
      }
    }
    csr = coo_to_csr(coo);
  }

  CacheHierarchy make(CachePolicy policy, std::size_t budget_rows,
                      bool prefetch = false) const {
    CacheConfig cfg;
    cfg.budget_bytes = budget_rows * kDim * sizeof(float);
    cfg.policy = policy;
    cfg.prefetch = prefetch;
    return CacheHierarchy(csr, table, cfg);
  }
};

TEST(CachePolicyNames, RoundTripAndReject) {
  for (CachePolicy p : {CachePolicy::kStatic, CachePolicy::kLru,
                        CachePolicy::kLfu, CachePolicy::kTiered}) {
    EXPECT_EQ(parse_cache_policy(to_string(p)), p);
  }
  EXPECT_THROW(parse_cache_policy("arc"), std::invalid_argument);
  EXPECT_THROW(parse_cache_policy(""), std::invalid_argument);
}

TEST(CacheHierarchy, StaticSelectionMatchesEmbeddingCache) {
  Dataset data = generate("products", 9);
  const std::size_t budget = 100 * data.spec.feature_dim * sizeof(float);
  gpusim::Device dev;
  EmbeddingCache legacy(dev, data.csr, data.embeddings, budget);
  CacheConfig cfg;
  cfg.budget_bytes = budget;
  cfg.policy = CachePolicy::kStatic;
  CacheHierarchy hier(data.csr, data.embeddings, cfg);
  ASSERT_EQ(hier.static_capacity_rows(), legacy.cached_vertices());
  EXPECT_EQ(hier.dynamic_capacity_rows(), 0u);
  for (Vid v = 0; v < data.csr.num_vertices; ++v)
    EXPECT_EQ(hier.static_contains(v), legacy.contains(v)) << v;
}

// Satellite of the per-batch-reconstruction fix: the legacy EmbeddingCache
// pays a cudaMalloc-like alloc-overhead charge on *every* construction —
// the cost the old per-batch path paid once per batch. The hierarchy's
// bind_static re-binds the dataset-lifetime resident tier without that
// charge, so a fresh per-batch device sees a clean profile.
TEST(CacheHierarchy, BindStaticSkipsPerBatchAllocCharge) {
  Dataset data = generate("products", 9);
  const std::size_t budget = 64 * data.spec.feature_dim * sizeof(float);

  gpusim::Device legacy_dev;
  EmbeddingCache legacy(legacy_dev, data.csr, data.embeddings, budget);
  EXPECT_GT(legacy_dev.profile_latency_us(), 0.0);  // the old per-batch cost

  CacheConfig cfg;
  cfg.budget_bytes = budget;
  cfg.policy = CachePolicy::kStatic;
  CacheHierarchy hier(data.csr, data.embeddings, cfg);
  gpusim::Device batch_dev;
  const gpusim::BufferId buf = hier.bind_static(batch_dev);
  EXPECT_NE(buf, gpusim::kInvalidBuffer);
  EXPECT_EQ(batch_dev.profile_latency_us(), 0.0);
}

TEST(CacheHierarchy, LruEvictsLeastRecentlyUsed) {
  TinyEnv env;
  CacheHierarchy hier = env.make(CachePolicy::kLru, 2);
  ASSERT_EQ(hier.dynamic_capacity_rows(), 2u);

  std::vector<Vid> b1{0, 1};
  auto look = hier.lookup(b1, 1, false);
  EXPECT_EQ(look.misses, 2u);
  EXPECT_EQ(look.expected_evictions, 0u);
  hier.commit(look, 100.0);
  EXPECT_TRUE(hier.dynamic_contains(0));
  EXPECT_TRUE(hier.dynamic_contains(1));

  std::vector<Vid> b2{0};  // re-use 0: vertex 1 becomes the LRU victim
  look = hier.lookup(b2, 2, false);
  EXPECT_EQ(look.dynamic_hits, 1u);
  hier.commit(look, 100.0);

  std::vector<Vid> b3{2};
  look = hier.lookup(b3, 3, false);
  EXPECT_EQ(look.misses, 1u);
  EXPECT_EQ(look.expected_evictions, 1u);
  hier.commit(look, 100.0);
  EXPECT_TRUE(hier.dynamic_contains(0));
  EXPECT_FALSE(hier.dynamic_contains(1));
  EXPECT_TRUE(hier.dynamic_contains(2));
  EXPECT_EQ(hier.stats().evictions, 1u);
}

TEST(CacheHierarchy, LfuEvictsLeastFrequentlyUsed) {
  TinyEnv env;
  CacheHierarchy hier = env.make(CachePolicy::kLfu, 2);

  std::vector<Vid> b1{0, 1};
  hier.commit(hier.lookup(b1, 1, false), 100.0);
  std::vector<Vid> b2{1};  // freq(1) = 2, freq(0) = 1
  hier.commit(hier.lookup(b2, 2, false), 100.0);
  std::vector<Vid> b3{2};  // evicts 0, the low-frequency entry
  hier.commit(hier.lookup(b3, 3, false), 100.0);
  EXPECT_FALSE(hier.dynamic_contains(0));
  EXPECT_TRUE(hier.dynamic_contains(1));
  EXPECT_TRUE(hier.dynamic_contains(2));
}

TEST(CacheHierarchy, TieredSplitsBudget) {
  TinyEnv env;
  CacheHierarchy hier = env.make(CachePolicy::kTiered, 4);
  EXPECT_EQ(hier.static_capacity_rows(), 2u);
  EXPECT_EQ(hier.dynamic_capacity_rows(), 2u);
  // The static half pins the top-degree vertices of the tiny graph.
  EXPECT_TRUE(hier.static_contains(0));
  EXPECT_TRUE(hier.static_contains(1));
  EXPECT_FALSE(hier.static_contains(2));
}

TEST(CacheHierarchy, DuplicateVidsClassifyOnceAgainstPreBatchState) {
  TinyEnv env;
  CacheHierarchy hier = env.make(CachePolicy::kLru, 4);
  std::vector<Vid> batch{5, 5, 5, 6};
  auto look = hier.lookup(batch, 1, false);
  // All four rows gather this batch; classification counts each row, but
  // the staged admissions are deduplicated.
  EXPECT_EQ(look.gather_rows.size(), 4u);
  EXPECT_EQ(look.misses, 4u);
  EXPECT_EQ(look.admitted.size(), 2u);
  hier.commit(look, 100.0);
  EXPECT_EQ(hier.dynamic_size_rows(), 2u);

  // Second batch: every duplicate of 5 is a dynamic hit.
  auto look2 = hier.lookup(batch, 2, false);
  EXPECT_EQ(look2.dynamic_hits, 4u);
  EXPECT_EQ(look2.misses, 0u);
}

TEST(CacheHierarchy, LookupIsPureUntilCommit) {
  TinyEnv env;
  CacheHierarchy hier = env.make(CachePolicy::kLru, 2);
  std::vector<Vid> batch{0, 1};
  auto first = hier.lookup(batch, 1, false);
  EXPECT_FALSE(hier.dynamic_contains(0));
  EXPECT_EQ(hier.stats().batches, 0u);
  // A faulted-attempt retry re-runs lookup against unchanged state and
  // must classify identically.
  auto retry = hier.lookup(batch, 1, false);
  EXPECT_EQ(retry.misses, first.misses);
  EXPECT_EQ(retry.admitted, first.admitted);
  EXPECT_EQ(retry.gather_vids, first.gather_vids);
}

TEST(CacheHierarchy, PrefetchNeedsCommittedComputeWindow) {
  TinyEnv env;
  CacheHierarchy hier = env.make(CachePolicy::kLru, 8, /*prefetch=*/true);
  // No committed batch yet: no window to hide warm-up transfers under.
  EXPECT_EQ(hier.prefetch_budget_rows(1), 0u);
  std::vector<Vid> b1{0, 1};
  auto look = hier.lookup(b1, 1, /*prefetch_armed=*/true);
  EXPECT_EQ(look.prefetched, 0u);
  EXPECT_EQ(look.misses, 2u);
  hier.commit(look, 1.0e6);  // huge compute window for the next batch

  EXPECT_GT(hier.prefetch_budget_rows(2), 0u);
  std::vector<Vid> b2{2, 3};
  look = hier.lookup(b2, 2, /*prefetch_armed=*/true);
  EXPECT_EQ(look.prefetch_hits, 2u);
  EXPECT_EQ(look.misses, 0u);
  EXPECT_EQ(look.prefetched, 2u);
  // Prefetch-armed or not, the rows still gather fresh (numerics contract).
  EXPECT_EQ(look.gather_vids.size(), 2u);

  // Without the sampler having prepared the batch ahead, no prefetch.
  auto cold = hier.lookup(std::vector<Vid>{4, 5}, 2, /*prefetch_armed=*/false);
  EXPECT_EQ(cold.prefetch_hits, 0u);
  EXPECT_EQ(cold.misses, 2u);
}

// Regression: a row can be prefetch-admitted and then evicted again by the
// SAME commit's later fills (capacity pressure). Its upload is still in
// flight, so the next batch must not class it kPrefetch a second time —
// that double-credited the overlap window (two "free" uploads for one
// PCIe transfer). It has to fall through to the miss class until the
// in-flight set rolls over.
TEST(CacheHierarchy, EvictedInflightPrefetchIsNotRecredited) {
  TinyEnv env;
  CacheHierarchy hier = env.make(CachePolicy::kLru, 2, /*prefetch=*/true);
  ASSERT_EQ(hier.dynamic_capacity_rows(), 2u);

  hier.commit(hier.lookup(std::vector<Vid>{0, 1}, 1, true), 1.0e6);
  ASSERT_EQ(hier.prefetch_budget_rows(2), 2u);  // capped at capacity

  // Batch 2: 2 and 3 consume the prefetch budget, 4 is a plain miss; the
  // commit admits all three, so 4's fill evicts the just-prefetched 2.
  auto look2 = hier.lookup(std::vector<Vid>{2, 3, 4}, 2, true);
  EXPECT_EQ(look2.prefetched, 2u);
  EXPECT_EQ(look2.misses, 1u);
  hier.commit(look2, 1.0e6);
  EXPECT_FALSE(hier.dynamic_contains(2));
  EXPECT_TRUE(hier.dynamic_contains(3));
  EXPECT_TRUE(hier.dynamic_contains(4));

  // Batch 3: 2's upload is still in flight -> miss, not a second prefetch
  // credit. 3 is a genuine dynamic hit, fresh vid 5 may still prefetch.
  const auto look3 = hier.lookup(std::vector<Vid>{2, 3, 5}, 3, true);
  EXPECT_EQ(look3.misses, 1u);          // vid 2: deduplicated
  EXPECT_EQ(look3.dynamic_hits, 1u);    // vid 3
  EXPECT_EQ(look3.prefetch_hits, 1u);   // vid 5: budget still applies
  EXPECT_EQ(look3.prefetched, 1u);
  ASSERT_EQ(look3.prefetched_vids.size(), 1u);
  EXPECT_EQ(look3.prefetched_vids[0], 5u);
  hier.commit(look3, 50.0);

  // The in-flight set rolls over each commit: once 2's entry ages out it
  // can be prefetched again like any cold row.
  hier.commit(hier.lookup(std::vector<Vid>{6}, 4, false), 1.0e6);
  const auto look5 = hier.lookup(std::vector<Vid>{2}, 5, true);
  EXPECT_EQ(look5.prefetch_hits, 1u);
}

TEST(CacheHierarchy, ReplaySequencesIdentically) {
  TinyEnv env;
  const auto run = [&](CachePolicy policy) {
    CacheHierarchy hier = env.make(policy, 3, true);
    for (std::uint64_t b = 1; b <= 8; ++b) {
      std::vector<Vid> batch{static_cast<Vid>(b % 7),
                             static_cast<Vid>((b * 3) % 7),
                             static_cast<Vid>((b * 5) % 7)};
      hier.commit(hier.lookup(batch, b, b % 2 == 0), 50.0);
    }
    return hier.stats();
  };
  for (CachePolicy p : {CachePolicy::kLru, CachePolicy::kLfu,
                        CachePolicy::kTiered}) {
    const CacheStats a = run(p);
    const CacheStats b = run(p);
    EXPECT_EQ(a.static_hits, b.static_hits);
    EXPECT_EQ(a.dynamic_hits, b.dynamic_hits);
    EXPECT_EQ(a.prefetch_hits, b.prefetch_hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.prefetched_rows, b.prefetched_rows);
  }
}

TEST(CacheHierarchy, AssembleMatchesFlatGather) {
  Dataset data = generate("products", 9);
  ReindexFormats formats{.csr = true};
  pipeline::PreprocExecutor exec(data.csr, data.embeddings, data.spec.fanout,
                                 2, 42, formats);
  auto batch = exec.sampler().pick_batch(100, 0);
  auto pre = exec.run_serial(batch);

  CacheConfig cfg;
  cfg.budget_bytes = 1 << 20;
  cfg.policy = CachePolicy::kTiered;
  cfg.ring.chunk_rows = 64;  // several chunks, so slot reuse is priced
  CacheHierarchy hier(data.csr, data.embeddings, cfg);
  auto look = hier.lookup(pre.batch.vid_order, 1, false);
  ASSERT_GT(look.static_rows.size(), 0u);
  ASSERT_GT(look.gather_rows.size(), cfg.ring.chunk_rows);

  gpusim::Device dev;
  Matrix gathered(look.gather_vids.size(), data.spec.feature_dim);
  Transfer staging(dev, gpusim::PcieModel(cfg.pcie), /*pinned=*/true);
  const auto table_ov = hier.ring().gather_through(
      data.embeddings, look.gather_vids, gathered, staging, 6.0e-3);
  // The five-argument form reads the gathered rows from the uploaded
  // gather buffer, in lookup order.
  auto gather_buf = kernels::upload_matrix(dev, gathered, "gathered");
  auto static_buf = hier.bind_static(dev);
  auto assembled = hier.assemble(dev, static_buf, look, gather_buf,
                                 pre.batch.vid_order.size());
  EXPECT_EQ(kernels::download_matrix(dev, assembled), pre.embeddings);
  const gpusim::KernelStats flat = dev.profile().back();

  // The one-copy path: the ring only prices the rows the batch's K stage
  // prepared, identically, and assemble copies them straight from the
  // prepared table; the gather buffer is a footprint its loads name.
  const std::size_t n = look.gather_rows.size();
  const auto prepared_ov = hier.ring().gather_prepared(
      pre.embeddings, look.gather_rows, staging, 6.0e-3);
  EXPECT_GT(prepared_ov.chunks, 1u);
  EXPECT_EQ(prepared_ov.chunks, table_ov.chunks);
  EXPECT_EQ(prepared_ov.bytes, table_ov.bytes);
  EXPECT_EQ(prepared_ov.gather_us, table_ov.gather_us);
  EXPECT_EQ(prepared_ov.transfer_us, table_ov.transfer_us);
  EXPECT_EQ(prepared_ov.critical_us, table_ov.critical_us);
  const auto footprint = dev.alloc_f32(n, data.spec.feature_dim,
                                       "prepared-gathered",
                                       gpusim::HostStorage::kNone);
  auto from_prepared = hier.assemble(
      dev, static_buf, look, footprint,
      {.table = pre.embeddings, .by_destination = true},
      pre.batch.vid_order.size());
  EXPECT_EQ(kernels::download_matrix(dev, from_prepared), pre.embeddings);
  const gpusim::KernelStats one_copy = dev.profile().back();
  EXPECT_EQ(one_copy.name, flat.name);
  EXPECT_EQ(one_copy.blocks, flat.blocks);
  EXPECT_EQ(one_copy.flops, flat.flops);
  EXPECT_EQ(one_copy.global_bytes, flat.global_bytes);
  EXPECT_EQ(one_copy.cache_loaded_bytes, flat.cache_loaded_bytes);
  EXPECT_EQ(one_copy.cache_hit_bytes, flat.cache_hit_bytes);
  EXPECT_EQ(one_copy.latency_us, flat.latency_us);

  // A source that cannot hold the lookup's rows is refused.
  const Matrix narrow(pre.batch.vid_order.size(), data.spec.feature_dim - 1);
  EXPECT_THROW(hier.assemble(dev, static_buf, look, footprint,
                             {.table = narrow, .by_destination = true},
                             pre.batch.vid_order.size()),
               std::invalid_argument);
  EXPECT_THROW(hier.assemble(dev, static_buf, look, footprint,
                             pre.batch.vid_order.size()),
               std::logic_error);  // a footprint has no rows to read
}

TEST(PinnedRingBuffer, SingleSlotSerializesFully) {
  TinyEnv env;
  gpusim::Device dev;
  PinnedRingBuffer ring(TinyEnv::kDim, RingConfig{1, 2});
  std::vector<Vid> vids{0, 1, 2, 3, 4, 5};
  Matrix out(vids.size(), TinyEnv::kDim);
  Transfer transfer(dev, gpusim::PcieModel(gpusim::PcieParams{}),
                    /*pinned=*/true);
  const auto ov =
      ring.gather_through(env.table, vids, out, transfer, 6.0e-3);
  EXPECT_EQ(ov.chunks, 3u);
  // One slot: chunk c+1's gather waits for chunk c's upload to drain the
  // slot, so the makespan is the full serial sum and nothing overlaps.
  EXPECT_DOUBLE_EQ(ov.critical_us, ov.gather_us + ov.transfer_us);
  EXPECT_DOUBLE_EQ(ov.overlapped_us(), 0.0);
}

TEST(PinnedRingBuffer, MultiSlotOverlapsAndPreservesBytes) {
  TinyEnv env;
  gpusim::Device dev;
  PinnedRingBuffer ring(TinyEnv::kDim, RingConfig{4, 2});
  std::vector<Vid> vids{9, 3, 0, 7, 7, 1, 4, 2};
  Matrix out(vids.size(), TinyEnv::kDim);
  Transfer transfer(dev, gpusim::PcieModel(gpusim::PcieParams{}),
                    /*pinned=*/true);
  const auto ov =
      ring.gather_through(env.table, vids, out, transfer, 6.0e-3);
  EXPECT_EQ(ov.chunks, 4u);
  EXPECT_LT(ov.critical_us, ov.gather_us + ov.transfer_us);
  EXPECT_GE(ov.critical_us, ov.gather_us);
  EXPECT_GE(ov.critical_us, ov.transfer_us);
  EXPECT_GT(ov.overlapped_us(), 0.0);
  EXPECT_EQ(out, env.table.gather(vids));
}

// The shape checks hold in every build type: a wrong `out` is refused
// instead of being written out of bounds.
TEST(PinnedRingBuffer, GatherThroughRejectsAMisshapenOutput) {
  TinyEnv env;
  gpusim::Device dev;
  const PinnedRingBuffer ring(TinyEnv::kDim, RingConfig{2, 2});
  Transfer transfer(dev, gpusim::PcieModel(gpusim::PcieParams{}),
                    /*pinned=*/true);
  std::vector<Vid> vids{0, 1, 2};
  Matrix short_out(vids.size() - 1, TinyEnv::kDim);
  EXPECT_THROW(ring.gather_through(env.table, vids, short_out, transfer, 1.0),
               std::invalid_argument);
  Matrix wide_out(vids.size(), TinyEnv::kDim + 1);
  EXPECT_THROW(ring.gather_through(env.table, vids, wide_out, transfer, 1.0),
               std::invalid_argument);
}

TEST(PinnedRingBuffer, GatherPreparedRejectsMisshapenMatrices) {
  TinyEnv env;
  gpusim::Device dev;
  const PinnedRingBuffer ring(TinyEnv::kDim, RingConfig{2, 2});
  Transfer transfer(dev, gpusim::PcieModel(gpusim::PcieParams{}),
                    /*pinned=*/true);
  std::vector<std::uint32_t> rows{2, 0};
  const Matrix narrow_prepared(3, TinyEnv::kDim - 1);
  EXPECT_THROW(ring.gather_prepared(narrow_prepared, rows, transfer, 1.0),
               std::invalid_argument);
  const Matrix wide_prepared(3, TinyEnv::kDim + 1);
  EXPECT_THROW(ring.gather_prepared(wide_prepared, rows, transfer, 1.0),
               std::invalid_argument);
}

TEST(PinnedRingBuffer, GatherPreparedRejectsARowPastThePreparedTable) {
  TinyEnv env;
  gpusim::Device dev;
  const PinnedRingBuffer ring(TinyEnv::kDim, RingConfig{2, 2});
  Transfer transfer(dev, gpusim::PcieModel(gpusim::PcieParams{}),
                    /*pinned=*/true);
  const Matrix prepared = env.table.gather(std::vector<Vid>{4, 5, 6});
  std::vector<std::uint32_t> rows{2, 3};
  EXPECT_THROW(ring.gather_prepared(prepared, rows, transfer, 1.0),
               std::out_of_range);
  // In range, the rows are priced like a gather of as many rows.
  rows = {2, 0};
  std::vector<Vid> vids{6, 4};
  Matrix out(vids.size(), TinyEnv::kDim);
  const auto gathered = ring.gather_through(env.table, vids, out, transfer,
                                            1.0);
  const auto priced = ring.gather_prepared(prepared, rows, transfer, 1.0);
  EXPECT_EQ(priced.chunks, gathered.chunks);
  EXPECT_EQ(priced.bytes, gathered.bytes);
  EXPECT_EQ(priced.critical_us, gathered.critical_us);
}

}  // namespace
}  // namespace gt::sampling
