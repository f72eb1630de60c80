// Sharded execution strategies over the modeled DeviceGroup (DESIGN.md §14).
//
// Numerics always run the canonical single-device path; a ShardPlan
// decides how that run's priced kernel profile is *attributed* across N
// simulated devices and which collectives are priced at layer boundaries:
//
//  * Range sharding — the graph-partition baseline: device d owns the
//    contiguous dst-vertex range [d*n_dst/N, (d+1)*n_dst/N) of every
//    layer. Forward layers start with a halo-exchange all-gather of the
//    boundary embeddings each owner must send (counted from the real
//    reindexed layer CSR); backward layers end with an all-reduce of the
//    weight gradient every partition contributed to.
//
//  * Tensor parallelism — NeutronTP-style: device d owns a contiguous
//    slice of each layer's input-feature dimension, so aggregation
//    needs no communication at all; each layer boundary costs one
//    all-reduce of the partial layer output forward, and an all-gather of
//    the column-sharded input gradient backward. SGD applies the one
//    canonical weight gradient, as on a single device.
//
// Attribution is deterministic and sum-preserving: integer counters
// (flops, bytes, blocks) are split by cumulative proportional rounding
// (split_proportional below), and latency is repriced per device as
// launch overhead plus the device's fraction of the post-overhead time —
// every device pays its own launch. Because the canonical profile is
// bit-identical across compute-thread counts (the PR 4 contract), the
// per-device stats are too.
#pragma once

#include <cstdint>
#include <vector>

#include "frameworks/framework.hpp"
#include "gpusim/device_group.hpp"
#include "pipeline/executor.hpp"

namespace gt::frameworks::detail {

/// Index range [lo, hi) of the canonical device profile covering one
/// layer pass. detail::run_layers captures it around each layer's forward
/// and backward (LayerPass); profile entries outside every slice (loss
/// head, synthetic charges) are attributed by the plan's default weights.
struct LayerSlice {
  std::uint32_t layer = 0;
  bool backward = false;
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Everything shard_execution() needs, derived once per batch from the
/// preprocessed layer structures and the model dimensions.
struct ShardPlan {
  ShardOptions options;
  std::uint32_t num_layers = 0;

  // Attribution weights, one entry per device.
  std::vector<std::vector<std::uint64_t>> dst_rows;   // [L] range: dst rows
  std::vector<std::vector<std::uint64_t>> feat_cols;  // [L] tp: in-dim cols
  std::vector<std::uint64_t> default_weights;         // non-layer kernels

  // Collective payloads.
  std::vector<std::vector<std::size_t>> halo_shard_bytes;  // [L] range fwd
  std::vector<std::size_t> grad_reduce_bytes;              // [L] range bwd
  std::vector<std::size_t> tp_fwd_allreduce_bytes;         // [L] tp fwd
  std::vector<std::vector<std::size_t>> tp_bwd_gather_bytes;  // [L] tp bwd

  const std::vector<std::uint64_t>& layer_weights(std::uint32_t layer) const {
    return options.strategy == ShardStrategy::kTensorParallel
               ? feat_cols[layer]
               : dst_rows[layer];
  }
};

ShardPlan build_shard_plan(const pipeline::PreprocResult& pre,
                           const models::ModelParams& params,
                           std::uint32_t num_layers,
                           const ShardOptions& options);

/// Split `x` across weights by cumulative proportional rounding:
/// out[d] = floor(x * cum[d+1] / total) - floor(x * cum[d] / total).
/// Sum-preserving (the shares always add back to x) and deterministic.
/// All-zero weights split as all-zero shares except x lands on device 0.
std::vector<std::uint64_t> split_proportional(
    std::uint64_t x, const std::vector<std::uint64_t>& weights);

/// One batch's embedding-cache outcome volumes (DESIGN.md §15), attributed
/// across devices with the same sum-preserving proportional split as every
/// other integer counter so per-device cache accounting stays exact.
struct CacheBatchVolumes {
  std::uint64_t static_hits = 0;
  std::uint64_t dynamic_hits = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// The attributed multi-device view of one executed batch.
struct ShardedExecution {
  ShardOptions options;
  gpusim::GroupStats group;
  std::vector<gpusim::KernelStats> device_totals;  // per device
  std::vector<gpusim::CollectiveCost> priced;      // nonzero collectives

  /// Per-device attributed profile entries, for the kernel ledger's
  /// device column (profile order, devices with zero share skipped).
  struct DeviceKernel {
    std::size_t device = 0;
    gpusim::KernelStats stats;
  };
  std::vector<DeviceKernel> kernels;

  /// Per-device cache volumes (empty when the batch ran uncached). Each
  /// field sums back exactly to the batch totals.
  std::vector<CacheBatchVolumes> device_cache;
};

/// Attribute the canonical profile across the plan's devices, price the
/// strategy's collectives at the captured layer boundaries, and run the
/// merged group timeline. `launch_overhead_us` is the device cost
/// parameter every per-device kernel re-pays. `cache`, when non-null,
/// carries the batch's embedding-cache volumes to attribute per device.
ShardedExecution shard_execution(
    const std::vector<gpusim::KernelStats>& profile,
    std::vector<LayerSlice> slices, const ShardPlan& plan,
    double launch_overhead_us, const CacheBatchVolumes* cache = nullptr);

}  // namespace gt::frameworks::detail
