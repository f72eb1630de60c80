#include "frameworks/sharding.hpp"

#include <algorithm>
#include <cassert>

namespace gt::frameworks::detail {
namespace {

/// Contiguous range boundaries: element i of n split across N devices
/// belongs to the device whose [b[d], b[d+1]) contains i.
std::vector<std::size_t> range_boundaries(std::size_t n,
                                          std::size_t devices) {
  std::vector<std::size_t> b(devices + 1);
  for (std::size_t d = 0; d <= devices; ++d)
    b[d] = static_cast<std::size_t>(
        static_cast<unsigned __int128>(n) * d / devices);
  return b;
}

}  // namespace

std::vector<std::uint64_t> split_proportional(
    std::uint64_t x, const std::vector<std::uint64_t>& weights) {
  std::vector<std::uint64_t> out(weights.size(), 0);
  if (weights.empty()) return out;
  unsigned __int128 total = 0;
  for (std::uint64_t w : weights) total += w;
  if (total == 0) {  // degenerate domain: keep the work (and the sum)
    out[0] = x;
    return out;
  }
  unsigned __int128 cum = 0;
  std::uint64_t prev = 0;
  for (std::size_t d = 0; d < weights.size(); ++d) {
    cum += weights[d];
    const std::uint64_t upto = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(x) * cum / total);
    out[d] = upto - prev;
    prev = upto;
  }
  return out;
}

ShardPlan build_shard_plan(const pipeline::PreprocResult& pre,
                           const models::ModelParams& params,
                           std::uint32_t num_layers,
                           const ShardOptions& options) {
  const std::size_t n = options.devices;
  assert(n >= 1 && "build_shard_plan: at least one device");
  ShardPlan plan;
  plan.options = options;
  plan.num_layers = num_layers;
  plan.dst_rows.resize(num_layers);
  plan.feat_cols.resize(num_layers);
  plan.halo_shard_bytes.resize(num_layers);
  plan.grad_reduce_bytes.resize(num_layers);
  plan.tp_fwd_allreduce_bytes.resize(num_layers);
  plan.tp_bwd_gather_bytes.resize(num_layers);

  std::vector<unsigned char> needed;  // reused across layers
  for (std::uint32_t l = 0; l < num_layers; ++l) {
    const sampling::LayerGraphHost& lg = pre.layers[l];
    const std::size_t n_dst = lg.n_dst;
    const std::size_t n_src = lg.n_vertices;
    const std::size_t in_dim = params.in_dim(l);
    const std::size_t out_dim = params.out_dim(l);

    const std::vector<std::size_t> db = range_boundaries(n_dst, n);
    plan.dst_rows[l].resize(n);
    for (std::size_t d = 0; d < n; ++d) plan.dst_rows[l][d] = db[d + 1] - db[d];

    const std::vector<std::size_t> fb = range_boundaries(in_dim, n);
    plan.feat_cols[l].resize(n);
    for (std::size_t d = 0; d < n; ++d) plan.feat_cols[l][d] = fb[d + 1] - fb[d];

    plan.grad_reduce_bytes[l] = (in_dim * out_dim + out_dim) * sizeof(float);
    plan.tp_fwd_allreduce_bytes[l] = n_dst * out_dim * sizeof(float);
    plan.tp_bwd_gather_bytes[l].resize(n);
    for (std::size_t d = 0; d < n; ++d)
      plan.tp_bwd_gather_bytes[l][d] =
          n_src * plan.feat_cols[l][d] * sizeof(float);

    // Halo volume from the real layer structure: source rows device o owns
    // that at least one other partition's dst range references. Priced as
    // the per-owner shard of the layer's boundary all-gather.
    plan.halo_shard_bytes[l].assign(n, 0);
    if (options.strategy == ShardStrategy::kRange && n >= 2 && n_src > 0) {
      const std::vector<std::size_t> sb = range_boundaries(n_src, n);
      needed.assign(n_src, 0);
      for (std::size_t d = 0; d < n; ++d) {
        for (std::size_t dst = db[d]; dst < db[d + 1]; ++dst) {
          for (Vid v : lg.csr.neighbors(static_cast<Vid>(dst))) {
            if (v < sb[d] || v >= sb[d + 1]) needed[v] = 1;
          }
        }
      }
      for (std::size_t o = 0; o < n; ++o) {
        std::size_t rows = 0;
        for (std::size_t v = sb[o]; v < sb[o + 1]; ++v) rows += needed[v];
        plan.halo_shard_bytes[l][o] = rows * in_dim * sizeof(float);
      }
    }
  }

  if (options.strategy == ShardStrategy::kTensorParallel) {
    // Feature slices replicate non-layer work evenly across devices.
    plan.default_weights.assign(n, 1);
  } else if (num_layers > 0) {
    // Loss head & synthetic charges scale with the batch's dst rows.
    plan.default_weights = plan.dst_rows[num_layers - 1];
  } else {
    plan.default_weights.assign(n, 1);
  }
  return plan;
}

ShardedExecution shard_execution(
    const std::vector<gpusim::KernelStats>& profile,
    std::vector<LayerSlice> slices, const ShardPlan& plan,
    double launch_overhead_us, const CacheBatchVolumes* cache) {
  const std::size_t n = plan.options.devices;
  ShardedExecution out;
  out.options = plan.options;
  if (cache != nullptr) {
    // Cache outcomes are attributed like every other integer counter: by
    // the plan's default weights (the batch's dst-row ownership), with
    // cumulative rounding so each field sums back to the batch total.
    const auto s_hits = split_proportional(cache->static_hits,
                                           plan.default_weights);
    const auto d_hits = split_proportional(cache->dynamic_hits,
                                           plan.default_weights);
    const auto p_hits = split_proportional(cache->prefetch_hits,
                                           plan.default_weights);
    const auto misses = split_proportional(cache->misses,
                                           plan.default_weights);
    const auto evicts = split_proportional(cache->evictions,
                                           plan.default_weights);
    out.device_cache.resize(n);
    for (std::size_t d = 0; d < n; ++d) {
      out.device_cache[d].static_hits = s_hits[d];
      out.device_cache[d].dynamic_hits = d_hits[d];
      out.device_cache[d].prefetch_hits = p_hits[d];
      out.device_cache[d].misses = misses[d];
      out.device_cache[d].evictions = evicts[d];
    }
  }
  gpusim::DeviceGroup group({.devices = n});
  const bool tp = plan.options.strategy == ShardStrategy::kTensorParallel;

  std::sort(slices.begin(), slices.end(),
            [](const LayerSlice& a, const LayerSlice& b) {
              return a.lo < b.lo;
            });

  auto attribute = [&](std::size_t lo, std::size_t hi,
                       const std::vector<std::uint64_t>& w) {
    unsigned __int128 total = 0;
    for (std::uint64_t wd : w) total += wd;
    for (std::size_t i = lo; i < hi && i < profile.size(); ++i) {
      const gpusim::KernelStats& k = profile[i];
      const auto flops = split_proportional(k.flops, w);
      const auto bytes = split_proportional(k.global_bytes, w);
      const auto loaded = split_proportional(k.cache_loaded_bytes, w);
      const auto hits = split_proportional(k.cache_hit_bytes, w);
      const auto atomics = split_proportional(k.atomic_ops, w);
      const auto blocks = split_proportional(k.blocks, w);
      const double base = k.latency_us > launch_overhead_us
                              ? k.latency_us - launch_overhead_us
                              : 0.0;
      for (std::size_t d = 0; d < n; ++d) {
        const bool runs = total == 0 ? d == 0 : w[d] > 0;
        if (!runs) continue;  // no rows/columns -> no launch on this lane
        const double frac =
            total == 0 ? 1.0
                       : static_cast<double>(w[d]) /
                             static_cast<double>(static_cast<std::uint64_t>(
                                 total));
        gpusim::KernelStats ks;
        ks.name = k.name;
        ks.category = k.category;
        ks.phase = k.phase;
        ks.latency_us = launch_overhead_us + base * frac;
        ks.flops = flops[d];
        ks.global_bytes = bytes[d];
        ks.cache_loaded_bytes = loaded[d];
        ks.cache_hit_bytes = hits[d];
        ks.atomic_ops = atomics[d];
        ks.blocks = blocks[d];
        group.add_kernel(d, ks);
        out.kernels.push_back({d, std::move(ks)});
      }
    }
  };

  auto price = [&](const gpusim::CollectiveCost& cost) {
    if (cost.steps > 0) out.priced.push_back(cost);
  };

  std::size_t next = 0;
  for (const LayerSlice& s : slices) {
    attribute(next, s.lo, plan.default_weights);
    const std::string tag = ".L" + std::to_string(s.layer);
    if (!s.backward) {
      if (!tp)  // gather boundary embeddings before the partition computes
        price(group.all_gather("halo" + tag, plan.halo_shard_bytes[s.layer]));
      attribute(s.lo, s.hi, plan.layer_weights(s.layer));
      if (tp)  // partial layer outputs -> one all-reduce per boundary
        price(group.all_reduce("tp.fwd" + tag,
                               plan.tp_fwd_allreduce_bytes[s.layer]));
    } else {
      attribute(s.lo, s.hi, plan.layer_weights(s.layer));
      if (tp) {
        if (s.layer > 0)  // column-sharded dX feeds the next boundary
          price(group.all_gather("tp.dx" + tag,
                                 plan.tp_bwd_gather_bytes[s.layer]));
      } else {  // every partition contributed to the full weight gradient
        price(group.all_reduce("grad" + tag,
                               plan.grad_reduce_bytes[s.layer]));
      }
    }
    next = std::max(next, s.hi);
  }
  attribute(next, profile.size(), plan.default_weights);

  out.group = group.finish();
  out.device_totals = group.device_totals();
  return out;
}

}  // namespace gt::frameworks::detail
