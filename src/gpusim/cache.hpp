// Per-SM cache model.
//
// Lines are keyed at (buffer, row, chunk) granularity — one vertex's feature
// vector (or one feature-chunk of it) is the unit GNN kernels move, and the
// paper's "cache bloat" metric is defined exactly as bytes of embedding data
// loaded into SM caches relative to the embedding table size (Fig 6b). LRU
// replacement, write-allocate.
//
// Host representation. Every modeled load and store is one access() call,
// except that a block's whole weight-row stream in the dense Apply kernels
// is one access_rows() call. This is the simulator's hottest path, and it
// allocates nothing in steady state:
//  - lines live in a node pool linked into an index-based LRU list (front =
//    most recent); evicted nodes go on a free list and are reused;
//  - an open-addressing, linear-probing table maps keys to node indices,
//    with backward-shift deletion, so no tombstones build up;
//  - each table slot records the epoch that wrote it. clear() bumps the
//    epoch, which empties every slot at once, so clearing costs O(1) and
//    the table and pool keep their capacity from kernel to kernel;
//  - the cache remembers the last row run access_rows() left resident and
//    contiguous in LRU order, so the same run again is one splice.
// The table starts sized from the capacity, grows (load factor <= 1/2) to
// the most lines any kernel kept resident on the SM, and never shrinks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gt::gpusim {

struct CacheKey {
  std::uint32_t buffer = 0;
  std::uint32_t row = 0;
  std::uint32_t chunk = 0;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    std::uint64_t x = (static_cast<std::uint64_t>(k.buffer) << 40) ^
                      (static_cast<std::uint64_t>(k.row) << 8) ^ k.chunk;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

class SmCache {
 public:
  /// Throws std::invalid_argument when `capacity_bytes` does not fit in 32
  /// bits (a retained line is never wider than the capacity).
  explicit SmCache(std::size_t capacity_bytes);

  /// Touch a line of `bytes`. Returns true on hit. On miss the line is
  /// loaded (LRU evictions as needed) and `loaded_bytes` grows.
  bool access(const CacheKey& key, std::size_t bytes) {
    const auto hash = static_cast<std::uint32_t>(CacheKeyHash{}(key));
    const std::size_t slot = probe(key, hash);
    if (slots_[slot].epoch == epoch_) {
      const std::uint32_t n = slots_[slot].node;
      if (nodes_[n].run == run_id_) drop_run();
      touch(n, n);
      hit_bytes_ += bytes;
      return true;
    }
    return miss(key, hash, bytes, slot);
  }

  /// Touch the lines (buffer, first + i, chunk 0) for i = 0 .. count - 1,
  /// in that order, each `bytes` wide: by definition the same as `count`
  /// access() calls, with the same counters and LRU order afterwards.
  /// When the previous call's run comes again with its lines still
  /// resident and contiguous in LRU order, every access would hit, so the
  /// call adds count * bytes to the hit bytes and splices that block of
  /// lines to the front in O(1).
  void access_rows(std::uint32_t buffer, std::uint32_t first,
                   std::uint32_t count, std::size_t bytes);

  /// Empty the cache and zero its counters. O(1); keeps capacity.
  void clear() noexcept;

  std::size_t loaded_bytes() const noexcept { return loaded_bytes_; }
  std::size_t hit_bytes() const noexcept { return hit_bytes_; }
  std::size_t resident_bytes() const noexcept { return resident_bytes_; }
  /// Lines currently resident.
  std::size_t resident_lines() const noexcept { return lines_; }
  /// Hash-table slots allocated (host footprint; never shrinks).
  std::size_t table_slots() const noexcept { return slots_.size(); }
  /// access_rows() calls answered by the splice since construction (a host
  /// diagnostic, not a modeled number; clear() keeps it).
  std::size_t spliced_runs() const noexcept { return spliced_runs_; }

 private:
  static constexpr std::uint32_t kNil = ~0u;

  struct Node {
    CacheKey key;
    std::uint32_t hash = 0;
    std::uint32_t bytes = 0;    // <= capacity, which fits in 32 bits
    std::uint32_t run = 0;      // == run_id_ iff the line is in run_
    std::uint32_t prev = kNil;  // toward the most recent line
    std::uint32_t next = kNil;  // toward the least recent line
  };
  static_assert(sizeof(Node) == 32, "two nodes per 64-byte host line");

  /// The row run access_rows() tracks: its lines are resident and form one
  /// contiguous block of the LRU list, `newest` (row first + count - 1)
  /// nearest the front and `oldest` (row first) nearest the back. count
  /// == 0 when no run is tracked.
  struct Run {
    std::uint32_t buffer = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::size_t bytes = 0;
    std::uint32_t newest = kNil;
    std::uint32_t oldest = kNil;
  };

  struct Slot {
    std::uint32_t epoch = 0;  // live iff == epoch_; 0 is never current
    std::uint32_t node = 0;
  };

  /// The slot holding `key`, or the empty slot where it would be inserted.
  std::size_t probe(const CacheKey& key, std::uint32_t hash) const {
    std::size_t i = hash & mask_;
    while (slots_[i].epoch == epoch_ && nodes_[slots_[i].node].key != key)
      i = (i + 1) & mask_;
    return i;
  }

  // The list primitives take a block of lines linked newest .. oldest
  // (one line when the two are equal) and keep its internal order.

  /// Move a resident block to the front of the LRU list.
  void touch(std::uint32_t newest, std::uint32_t oldest) noexcept {
    if (newest == head_) return;
    unlink(newest, oldest);
    push_front(newest, oldest);
  }

  void unlink(std::uint32_t newest, std::uint32_t oldest) noexcept {
    const std::uint32_t before = nodes_[newest].prev;
    const std::uint32_t after = nodes_[oldest].next;
    if (before != kNil) nodes_[before].next = after;
    else head_ = after;
    if (after != kNil) nodes_[after].prev = before;
    else tail_ = before;
  }

  void push_front(std::uint32_t newest, std::uint32_t oldest) noexcept {
    nodes_[newest].prev = kNil;
    nodes_[oldest].next = head_;
    if (head_ != kNil) nodes_[head_].prev = oldest;
    else tail_ = oldest;
    head_ = newest;
  }

  bool miss(const CacheKey& key, std::uint32_t hash, std::size_t bytes,
            std::size_t slot);
  /// Stop tracking run_: bump run_id_ so no node carries the current stamp.
  void drop_run() noexcept;
  /// After a per-line run, track it if its lines are the `count` most
  /// recent, newest first; otherwise track nothing.
  void track_run(std::uint32_t buffer, std::uint32_t first,
                 std::uint32_t count, std::size_t bytes) noexcept;
  void evict_lru() noexcept;
  void erase_slot(std::size_t slot) noexcept;
  void grow();

  std::size_t capacity_bytes_;
  std::size_t resident_bytes_ = 0;
  std::size_t loaded_bytes_ = 0;  // cumulative fill traffic (misses)
  std::size_t hit_bytes_ = 0;
  std::size_t lines_ = 0;

  std::vector<Node> nodes_;  // pool; indices are stable until clear()
  std::uint32_t free_ = kNil;  // evicted nodes, chained through `next`
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;

  std::vector<Slot> slots_;  // power-of-two size
  std::size_t mask_ = 0;
  std::uint32_t epoch_ = 1;

  Run run_;
  std::uint32_t run_id_ = 1;  // stamp of run_'s nodes; 0 is never current
  std::size_t spliced_runs_ = 0;
};

}  // namespace gt::gpusim
