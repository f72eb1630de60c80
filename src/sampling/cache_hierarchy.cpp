#include "sampling/cache_hierarchy.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "kernels/common.hpp"

namespace gt::sampling {

const char* to_string(CachePolicy policy) noexcept {
  switch (policy) {
    case CachePolicy::kStatic: return "static";
    case CachePolicy::kLru: return "lru";
    case CachePolicy::kLfu: return "lfu";
    case CachePolicy::kTiered: return "tiered";
  }
  return "?";
}

CachePolicy parse_cache_policy(const std::string& name) {
  if (name == "static") return CachePolicy::kStatic;
  if (name == "lru") return CachePolicy::kLru;
  if (name == "lfu") return CachePolicy::kLfu;
  if (name == "tiered") return CachePolicy::kTiered;
  throw std::invalid_argument("unknown cache policy '" + name +
                              "' (expected static|lru|lfu|tiered)");
}

CacheHierarchy::CacheHierarchy(const Csr& graph, const EmbeddingTable& table,
                               CacheConfig config)
    : config_(config),
      table_(table),
      dim_(table.dim()),
      row_bytes_(table.dim() * sizeof(float)),
      ring_(table.dim(), config.ring) {
  const std::size_t budget_rows =
      config_.budget_bytes / std::max<std::size_t>(row_bytes_, 1);
  std::size_t static_rows = 0;
  switch (config_.policy) {
    case CachePolicy::kStatic: static_rows = budget_rows; break;
    case CachePolicy::kLru:
    case CachePolicy::kLfu: static_rows = 0; break;
    case CachePolicy::kTiered:
      static_rows = static_cast<std::size_t>(
          static_cast<double>(budget_rows) *
          std::clamp(config_.static_fraction, 0.0, 1.0));
      break;
  }
  static_rows = std::min<std::size_t>(static_rows, graph.num_vertices);

  if (static_rows > 0) {
    // Identical selection to EmbeddingCache: out-degree = occurrences as a
    // sampled source in the dst-indexed CSR's col_idx, ties by vid.
    std::vector<std::uint32_t> out_degree(graph.num_vertices, 0);
    for (Vid s : graph.col_idx) ++out_degree[s];
    std::vector<Vid> order(graph.num_vertices);
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + static_rows,
                      order.end(), [&](Vid a, Vid b) {
                        if (out_degree[a] != out_degree[b])
                          return out_degree[a] > out_degree[b];
                        return a < b;
                      });
    order.resize(static_rows);
    static_order_ = std::move(order);
    static_mirror_ = Matrix(static_rows, dim_);
    for (std::size_t slot = 0; slot < static_rows; ++slot) {
      table_.gather_row(static_order_[slot], static_mirror_.row(slot));
      static_slot_.emplace(static_order_[slot],
                           static_cast<std::uint32_t>(slot));
    }
  }
  if (config_.policy != CachePolicy::kStatic)
    dynamic_capacity_ = budget_rows - static_rows;
}

CacheHierarchy::EvictKey CacheHierarchy::evict_key(
    Vid v, const DynEntry& e) const noexcept {
  if (config_.policy == CachePolicy::kLfu)
    return {e.freq, e.last_used, static_cast<std::uint64_t>(v)};
  return {e.last_used, 0, static_cast<std::uint64_t>(v)};
}

std::uint64_t CacheHierarchy::prefetch_budget_rows(
    [[maybe_unused]] std::uint64_t batch_index) const {
  if (!has_committed_ || dynamic_capacity_ == 0) return 0;
  // Invert the pinned PCIe model: how many rows can upload inside the
  // previous batch's compute window without spilling past it?
  if (last_compute_us_ <= config_.pcie.latency_us) return 0;
  const double budget_bytes = (last_compute_us_ - config_.pcie.latency_us) *
                              config_.pcie.bw_bytes_per_us;
  const auto rows = static_cast<std::uint64_t>(
      budget_bytes / static_cast<double>(std::max<std::size_t>(row_bytes_, 1)));
  return std::min<std::uint64_t>(rows, dynamic_capacity_);
}

CacheHierarchy::Lookup CacheHierarchy::lookup(std::span<const Vid> vid_order,
                                              std::uint64_t batch_index,
                                              bool prefetch_armed) const {
  Lookup look;
  look.batch_index = batch_index;
  std::uint64_t prefetch_left =
      (config_.prefetch && prefetch_armed) ? prefetch_budget_rows(batch_index)
                                           : 0;

  // Classification is against the *pre-batch* tier state; duplicates of a
  // VID within one batch reuse the first occurrence's class so admission
  // and touch lists stay unique (total-order determinism).
  enum class RowClass : unsigned char { kDynamic, kPrefetch, kMiss };
  std::unordered_map<Vid, RowClass> batch_class;
  batch_class.reserve(vid_order.size());

  for (std::size_t row = 0; row < vid_order.size(); ++row) {
    const Vid v = vid_order[row];
    const auto st = static_slot_.find(v);
    if (st != static_slot_.end()) {
      look.static_slots.push_back(st->second);
      look.static_rows.push_back(static_cast<std::uint32_t>(row));
      continue;
    }
    // Dynamic/prefetch hits and misses are all gathered this batch so the
    // assembled table is bit-identical to an uncached gather.
    look.gather_vids.push_back(v);
    look.gather_rows.push_back(static_cast<std::uint32_t>(row));

    auto seen = batch_class.find(v);
    if (seen == batch_class.end()) {
      RowClass cls;
      if (dynamic_.find(v) != dynamic_.end()) {
        cls = RowClass::kDynamic;
        look.touched.push_back(v);
      } else if (prefetch_left > 0 && dynamic_capacity_ > 0 &&
                 inflight_prefetch_.find(v) == inflight_prefetch_.end()) {
        // A row the previous commit already prefetch-admitted may have
        // been evicted again by that commit's own fills; its upload is
        // still in flight, so re-crediting it here would double-charge
        // the overlap window. It falls through to the miss class instead.
        cls = RowClass::kPrefetch;
        --prefetch_left;
        look.admitted.push_back(v);
        look.prefetched_vids.push_back(v);
        ++look.prefetched;
      } else {
        cls = RowClass::kMiss;
        if (dynamic_capacity_ > 0) look.admitted.push_back(v);  // cache fill
      }
      seen = batch_class.emplace(v, cls).first;
    }
    switch (seen->second) {
      case RowClass::kDynamic: ++look.dynamic_hits; break;
      case RowClass::kPrefetch: ++look.prefetch_hits; break;
      case RowClass::kMiss: ++look.misses; break;
    }
  }
  const std::uint64_t after = dynamic_.size() + look.admitted.size();
  look.expected_evictions =
      after > dynamic_capacity_ ? after - dynamic_capacity_ : 0;
  return look;
}

void CacheHierarchy::admit(Vid v, std::uint64_t now) {
  if (dynamic_capacity_ == 0) return;
  if (dynamic_.size() >= dynamic_capacity_) {
    const auto victim = evict_order_.begin();
    dynamic_.erase(victim->second);
    evict_order_.erase(victim);
    ++stats_.evictions;
  }
  DynEntry e;
  e.last_used = now;
  e.freq = 1;
  dynamic_.emplace(v, e);
  evict_order_.emplace(evict_key(v, e), v);
}

void CacheHierarchy::commit(const Lookup& look, double compute_us) {
  const std::uint64_t now = look.batch_index;
  // Touches first: rows the batch actually hit are re-stamped before this
  // batch's admissions start evicting.
  for (Vid v : look.touched) {
    auto it = dynamic_.find(v);
    assert(it != dynamic_.end());
    evict_order_.erase(evict_key(v, it->second));
    it->second.last_used = now;
    ++it->second.freq;
    evict_order_.emplace(evict_key(v, it->second), v);
  }
  const std::uint64_t evictions_before = stats_.evictions;
  for (Vid v : look.admitted) admit(v, now);
  assert(stats_.evictions - evictions_before == look.expected_evictions);
  (void)evictions_before;

  stats_.static_hits += look.static_rows.size();
  stats_.dynamic_hits += look.dynamic_hits;
  stats_.prefetch_hits += look.prefetch_hits;
  stats_.misses += look.misses;
  stats_.prefetched_rows += look.prefetched;
  ++stats_.batches;
  last_compute_us_ = compute_us;
  has_committed_ = true;
  inflight_prefetch_.clear();
  inflight_prefetch_.insert(look.prefetched_vids.begin(),
                            look.prefetched_vids.end());
}

gpusim::BufferId CacheHierarchy::bind_static(gpusim::Device& dev) const {
  if (static_order_.empty()) return gpusim::kInvalidBuffer;
  // Residency is dataset-lifetime: the selection and upload were paid once
  // at construction (host mirror), so re-binding to this batch's device
  // charges no alloc overhead and no transfer — only the memory footprint.
  return dev.alloc_f32(static_order_.size(), dim_, "cache.static",
                       gpusim::HostStorage::kNone);
}

gpusim::BufferId CacheHierarchy::assemble(gpusim::Device& dev,
                                          gpusim::BufferId static_buf,
                                          const Lookup& look,
                                          gpusim::BufferId gather_buffer,
                                          GatheredRows gathered,
                                          std::size_t total_rows) const {
  const std::size_t hits = look.static_rows.size();
  const std::size_t total = hits + look.gather_rows.size();
  const std::size_t need =
      gathered.by_destination ? total_rows : look.gather_rows.size();
  if (!look.gather_rows.empty() &&
      (gathered.table.cols() != dim_ || gathered.table.rows() < need))
    throw std::invalid_argument("CacheHierarchy::assemble: gathered rows "
                                "do not match the lookup");
  const gpusim::BufferId out =
      dev.alloc_f32(total_rows, dim_, "cache.assembled",
                    gpusim::HostStorage::kUninitialized);
  dev.charge_alloc_overhead("cache.assembled");
  auto ov = dev.f32(out);
  std::span<const float> sv = static_mirror_.data();

  dev.run_kernel("cache.Assemble", gpusim::KernelCategory::kOther, total,
                 [&](gpusim::BlockCtx& ctx) {
    const std::size_t i = ctx.block_id();
    if (i < hits) {
      const std::uint32_t slot = look.static_slots[i];
      const std::uint32_t row = look.static_rows[i];
      ctx.load(static_buf, slot, row_bytes_);
      std::copy_n(&sv[static_cast<std::size_t>(slot) * dim_], dim_,
                  &ov[static_cast<std::size_t>(row) * dim_]);
      ctx.store(out, row, row_bytes_);
    } else {
      const std::size_t g = i - hits;
      const std::uint32_t row = look.gather_rows[g];
      ctx.load(gather_buffer, static_cast<std::uint32_t>(g), row_bytes_);
      const auto src = gathered.table.row(gathered.by_destination ? row : g);
      std::copy_n(src.data(), dim_,
                  &ov[static_cast<std::size_t>(row) * dim_]);
      ctx.store(out, row, row_bytes_);
    }
  }, gpusim::BlockSafety::kParallel);
  return out;
}

gpusim::BufferId CacheHierarchy::assemble(gpusim::Device& dev,
                                          gpusim::BufferId static_buf,
                                          const Lookup& look,
                                          gpusim::BufferId gather_buffer,
                                          std::size_t total_rows) const {
  GatheredRows gathered;
  if (gather_buffer != gpusim::kInvalidBuffer)
    gathered.table = kernels::device_view(dev, gather_buffer);
  return assemble(dev, static_buf, look, gather_buffer, gathered,
                  total_rows);
}

}  // namespace gt::sampling
