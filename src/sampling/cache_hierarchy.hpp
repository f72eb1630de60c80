// Multi-tier embedding cache hierarchy for the K/T stages (DESIGN.md §15).
//
// The PaGraph-style static cache (embedding_cache.hpp, paper §VII) models a
// degree-pinned tier but is rebuilt — selection *and* row upload — on every
// batch. This type owns the tiers for the lifetime of a dataset:
//
//   * a **static tier**: the highest-out-degree vertices, selected once
//     (same ordering as EmbeddingCache so hit rates are comparable) and
//     mirrored host-side; each batch re-binds the resident tier's
//     footprint on the backend's device without re-paying selection or
//     upload;
//   * a **dynamic tier**: LRU or LFU over recently-used rows, with
//     replacement driven by *batch-index virtual time* and total-order
//     tie-breaks, so eviction decisions — and therefore the priced K/T
//     stats — are bit-identical across worker counts, thread counts, and
//     reruns;
//   * a **sampler-lookahead prefetcher**: the serving loop prepares batch
//     i+1 while executing batch i, so the prepared vid_order can warm the
//     dynamic tier during batch i's compute window. Rows that fit in that
//     window (inverted through the PCIe model) are priced as overlapped
//     transfer instead of critical-path K/T work.
//
// Numerics never change: every row the model consumes is byte-identical to
// an uncached flat gather. The hierarchy only re-prices which rows count
// against the scheduled lookup/transfer stages. On the host each row is
// copied once per batch: assemble() writes the input table from the static
// mirror and from the batch's prepared table (GatheredRows), while the
// device buffers it names for the static and gathered rows are footprints.
//
// Concurrency & faults: lookup() is const and pure — it classifies a batch
// against the current tier state without mutating it. commit() applies the
// staged admissions/touches and runs only from the serial execute path in
// batch order (mirroring SgdStage), so a faulted attempt that unwinds
// before commit leaves the tiers untouched and the retry is bit-identical.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datasets/embedding.hpp"
#include "gpusim/device.hpp"
#include "gpusim/pcie.hpp"
#include "graph/csr.hpp"
#include "sampling/ring_buffer.hpp"
#include "tensor/matrix.hpp"
#include "tensor/view.hpp"

namespace gt::sampling {

enum class CachePolicy {
  kStatic,  ///< whole budget degree-pinned (legacy EmbeddingCache behavior)
  kLru,     ///< whole budget dynamic, least-recently-used eviction
  kLfu,     ///< whole budget dynamic, least-frequently-used eviction
  kTiered,  ///< budget split static / dynamic-LRU (static_fraction)
};

const char* to_string(CachePolicy policy) noexcept;

/// Parse "static" | "lru" | "lfu" | "tiered"; throws std::invalid_argument.
CachePolicy parse_cache_policy(const std::string& name);

struct CacheConfig {
  std::size_t budget_bytes = 0;  ///< 0 disables the hierarchy entirely
  CachePolicy policy = CachePolicy::kStatic;
  bool prefetch = false;  ///< sampler-lookahead warm-up of the dynamic tier
  /// Fraction of the budget pinned statically under kTiered.
  double static_fraction = 0.5;
  /// Pinned ring buffer geometry for chunked miss-gathers (K->T overlap).
  RingConfig ring;
  /// PCIe model used to invert the prefetch window into a row budget and
  /// to price ring-buffer chunk transfers. Prefetch and miss staging go
  /// through pinned memory (Prepro-GT semantics).
  gpusim::PcieParams pcie{};
};

/// Cumulative, committed counters (never include faulted attempts).
struct CacheStats {
  std::uint64_t static_hits = 0;
  std::uint64_t dynamic_hits = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t prefetched_rows = 0;  ///< rows admitted by the prefetcher
  std::uint64_t batches = 0;
  std::uint64_t hits() const noexcept {
    return static_hits + dynamic_hits + prefetch_hits;
  }
  double hit_rate() const noexcept {
    const std::uint64_t total = hits() + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits()) / total;
  }
};

class CacheHierarchy {
 public:
  CacheHierarchy(const Csr& graph, const EmbeddingTable& table,
                 CacheConfig config);

  /// Classification of one batch against the current tier state. Static
  /// hits are assembled from the resident tier; every other row
  /// (dynamic/prefetch hits and misses alike) is gathered host-side this
  /// batch so numerics stay bit-identical to an uncached run — the classes
  /// differ only in how the gather/transfer is *priced*.
  struct Lookup {
    std::vector<std::uint32_t> static_slots;  // static-tier row per hit
    std::vector<std::uint32_t> static_rows;   // destination row per hit
    std::vector<Vid> gather_vids;             // rows gathered this batch
    std::vector<std::uint32_t> gather_rows;   // destination row per gather
    std::uint64_t dynamic_hits = 0;
    std::uint64_t prefetch_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t batch_index = 0;
    /// Evictions commit() will perform when applying this lookup —
    /// computable up front because admission order is deterministic.
    std::uint64_t expected_evictions = 0;
    // Staged dynamic-tier transaction, applied by commit().
    std::vector<Vid> touched;   // dynamic hits to re-stamp
    std::vector<Vid> admitted;  // unique rows to admit (prefetch + fills)
    std::uint64_t prefetched = 0;  // of `admitted`, rows the prefetcher won
    /// The prefetch-classed subset of `admitted`: commit() records these
    /// as in flight so the next batch cannot prefetch-credit the same row
    /// twice (see inflight_prefetch_).
    std::vector<Vid> prefetched_vids;

    std::uint64_t cached_rows() const noexcept {
      return static_rows.size() + dynamic_hits + prefetch_hits;
    }
    std::uint64_t total_rows() const noexcept {
      return static_rows.size() + gather_rows.size();
    }
    double hit_rate() const noexcept {
      return total_rows() == 0
                 ? 0.0
                 : static_cast<double>(cached_rows()) / total_rows();
    }
  };

  /// Pure classification at batch-index virtual time. `prefetch_armed`
  /// says the sampler prepared this batch ahead of execution; prefetch
  /// additionally requires config().prefetch and a committed prior batch
  /// whose compute window the warm-up transfers can hide under.
  Lookup lookup(std::span<const Vid> vid_order, std::uint64_t batch_index,
                bool prefetch_armed) const;

  /// Apply the staged transaction and record `compute_us` (the batch's
  /// simulated kernel time) as the next batch's prefetch overlap window.
  /// Serial execute path only; exactly once per reported batch.
  void commit(const Lookup& look, double compute_us);

  /// Re-bind the statically pinned rows to this batch's device: one
  /// resident buffer of the tier's footprint, no selection, no copy and no
  /// alloc-overhead charge — the upload happened once at hierarchy
  /// construction (modeled by the host-side mirror, which assemble()
  /// reads). The buffer is a footprint only (HostStorage::kNone). Returns
  /// kInvalidBuffer when the tier is empty.
  gpusim::BufferId bind_static(gpusim::Device& dev) const;

  /// Host copies of the gathered (non-static) rows that assemble() reads.
  /// Gathered row g of a Lookup is table.row(g) (lookup order, as in a
  /// gather buffer) or, with by_destination, table.row(look.gather_rows[g])
  /// (a batch's prepared input table, which holds every row at its
  /// destination).
  struct GatheredRows {
    ConstMatrixView table;
    bool by_destination = false;
  };

  /// Assemble the layer-0 input table (total_rows x dim) from the resident
  /// static rows plus the gathered rows. Static rows are copied from the
  /// host mirror and their modeled loads hit `static_buf`, the buffer
  /// bind_static returned; gathered rows are copied from `gathered` and
  /// their modeled loads hit row g of `gather_buffer`, which may be a
  /// footprint (HostStorage::kNone). Every row of the table is written
  /// once, so it is allocated unfilled. Throws std::invalid_argument if
  /// `gathered` has the wrong width or too few rows. Mirrors
  /// EmbeddingCache::assemble.
  gpusim::BufferId assemble(gpusim::Device& dev, gpusim::BufferId static_buf,
                            const Lookup& look,
                            gpusim::BufferId gather_buffer,
                            GatheredRows gathered,
                            std::size_t total_rows) const;

  /// The same with the gathered rows read from `gather_buffer`'s own host
  /// storage, in lookup order.
  gpusim::BufferId assemble(gpusim::Device& dev, gpusim::BufferId static_buf,
                            const Lookup& look,
                            gpusim::BufferId gather_buffer,
                            std::size_t total_rows) const;

  /// Rows the prefetcher may warm for batch `batch_index`: the transfer
  /// budget that fits inside the previous committed batch's compute
  /// window, inverted through the pinned PCIe model. 0 until a batch has
  /// committed (no window to hide under yet).
  std::uint64_t prefetch_budget_rows(std::uint64_t batch_index) const;

  const CacheConfig& config() const noexcept { return config_; }
  const CacheStats& stats() const noexcept { return stats_; }
  const PinnedRingBuffer& ring() const noexcept { return ring_; }
  std::size_t dim() const noexcept { return dim_; }
  std::size_t row_bytes() const noexcept { return row_bytes_; }
  std::size_t static_capacity_rows() const noexcept {
    return static_order_.size();
  }
  std::size_t dynamic_capacity_rows() const noexcept {
    return dynamic_capacity_;
  }
  std::size_t dynamic_size_rows() const noexcept { return dynamic_.size(); }
  bool static_contains(Vid v) const noexcept {
    return static_slot_.find(v) != static_slot_.end();
  }
  bool dynamic_contains(Vid v) const noexcept {
    return dynamic_.find(v) != dynamic_.end();
  }

 private:
  struct DynEntry {
    std::uint64_t last_used = 0;  // batch-index virtual time
    std::uint64_t freq = 0;       // accesses since admission
  };
  /// Total-order eviction key: (primary, secondary, vid). LRU uses
  /// (last_used, 0, vid); LFU uses (freq, last_used, vid). The vid
  /// component makes replacement deterministic under every tie.
  using EvictKey = std::array<std::uint64_t, 3>;
  EvictKey evict_key(Vid v, const DynEntry& e) const noexcept;
  void admit(Vid v, std::uint64_t now);

  CacheConfig config_;
  const EmbeddingTable& table_;
  std::size_t dim_ = 0;
  std::size_t row_bytes_ = 0;

  // Static tier: selection order (slot -> vid), host mirror of the
  // resident rows, and the reverse map used by lookup().
  std::vector<Vid> static_order_;
  Matrix static_mirror_;
  std::unordered_map<Vid, std::uint32_t> static_slot_;

  // Dynamic tier.
  std::size_t dynamic_capacity_ = 0;
  std::unordered_map<Vid, DynEntry> dynamic_;
  std::map<EvictKey, Vid> evict_order_;

  PinnedRingBuffer ring_;
  CacheStats stats_;
  double last_compute_us_ = 0.0;
  bool has_committed_ = false;
  /// Rows the previous commit admitted via the prefetcher — their modeled
  /// upload rides that batch's compute window, so they are "in flight"
  /// during the next lookup. A row evicted again before that lookup (tiny
  /// dynamic tier, same-commit fills) used to be re-classified kPrefetch
  /// and re-charged against the overlap budget; now it degrades to an
  /// honest miss instead of double-counting the hidden transfer.
  std::unordered_set<Vid> inflight_prefetch_;
};

}  // namespace gt::sampling
