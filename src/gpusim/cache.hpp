// Per-SM cache model.
//
// Lines are keyed at (buffer, row, chunk) granularity — one vertex's feature
// vector (or one feature-chunk of it) is the unit GNN kernels move, and the
// paper's "cache bloat" metric is defined exactly as bytes of embedding data
// loaded into SM caches relative to the embedding table size (Fig 6b). LRU
// replacement, write-allocate.
//
// Host representation. Every modeled load and store is one access() call,
// so this is the simulator's hottest path; it allocates nothing in steady
// state:
//  - lines live in a node pool linked into an index-based LRU list (front =
//    most recent); evicted nodes go on a free list and are reused;
//  - an open-addressing, linear-probing table maps keys to node indices,
//    with backward-shift deletion, so no tombstones build up;
//  - each table slot records the epoch that wrote it. clear() bumps the
//    epoch, which empties every slot at once, so clearing costs O(1) and
//    the table and pool keep their capacity from kernel to kernel.
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
  explicit SmCache(std::size_t capacity_bytes);

  /// Touch a line of `bytes`. Returns true on hit. On miss the line is
  /// loaded (LRU evictions as needed) and `loaded_bytes` grows.
  bool access(const CacheKey& key, std::size_t bytes) {
    const auto hash = static_cast<std::uint32_t>(CacheKeyHash{}(key));
    const std::size_t slot = probe(key, hash);
    if (slots_[slot].epoch == epoch_) {
      touch(slots_[slot].node);
      hit_bytes_ += bytes;
      return true;
    }
    return miss(key, hash, bytes, slot);
  }

  /// Empty the cache and zero its counters. O(1); keeps capacity.
  void clear() noexcept;

  std::size_t loaded_bytes() const noexcept { return loaded_bytes_; }
  std::size_t hit_bytes() const noexcept { return hit_bytes_; }
  std::size_t resident_bytes() const noexcept { return resident_bytes_; }
  /// Lines currently resident.
  std::size_t resident_lines() const noexcept { return lines_; }
  /// Hash-table slots allocated (host footprint; never shrinks).
  std::size_t table_slots() const noexcept { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNil = ~0u;

  struct Node {
    CacheKey key;
    std::uint32_t hash = 0;
    std::size_t bytes = 0;
    std::uint32_t prev = kNil;  // toward the most recent line
    std::uint32_t next = kNil;  // toward the least recent line
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

  /// Move a resident line to the front of the LRU list.
  void touch(std::uint32_t n) {
    if (n == head_) return;
    unlink(n);
    push_front(n);
  }

  void unlink(std::uint32_t n) noexcept {
    Node& node = nodes_[n];
    if (node.prev != kNil) nodes_[node.prev].next = node.next;
    else head_ = node.next;
    if (node.next != kNil) nodes_[node.next].prev = node.prev;
    else tail_ = node.prev;
  }

  void push_front(std::uint32_t n) noexcept {
    Node& node = nodes_[n];
    node.prev = kNil;
    node.next = head_;
    if (head_ != kNil) nodes_[head_].prev = n;
    else tail_ = n;
    head_ = n;
  }

  bool miss(const CacheKey& key, std::uint32_t hash, std::size_t bytes,
            std::size_t slot);
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
};

}  // namespace gt::gpusim
