// The VID hash table shared by neighbor sampling (S) and graph reindexing
// (R): original VID -> subgraph-local new VID, new VIDs handed out densely
// in insertion order (paper Fig 4, step 2).
//
// Both tasks hammer this table from multiple threads, which is the lock
// contention the service-wide tensor scheduler relaxes (paper Fig 14).
// The implementation uses striped locking and counts both acquisitions and
// *contended* acquisitions (a failed try_lock before blocking), so the
// contention experiments can report real measurements. Each stripe's map is
// a flat linear-probing table (no per-entry allocation; clear() keeps the
// slots), since sampling and reindexing probe it for every sampled edge.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "graph/types.hpp"

namespace gt::sampling {

class VidHashTable {
 public:
  /// `stripes` must be a power of two.
  explicit VidHashTable(std::size_t stripes = 64);

  /// Get the new VID for `orig`, inserting the next dense id if absent.
  /// `*is_new` (optional) reports whether an insertion happened.
  /// Thread-safe.
  Vid insert_or_get(Vid orig, bool* is_new = nullptr);

  /// Lookup only; returns kInvalidVid if absent. Thread-safe.
  Vid lookup(Vid orig) const;

  /// Number of distinct vertices inserted so far.
  Vid size() const noexcept {
    return next_id_.load(std::memory_order_acquire);
  }

  /// Insertion-ordered original VIDs (new VID -> original VID). Only valid
  /// while no concurrent insertions run.
  std::vector<Vid> insertion_order() const;

  /// Allocation-free insertion_order(): assigns into `out`, reusing its
  /// capacity. Only valid while no concurrent insertions run.
  void insertion_order_into(std::vector<Vid>& out) const;

  /// Drop every entry but keep bucket arrays and the order vector's
  /// capacity, so a reused table reaches steady state with no rehashing.
  /// Contention counters restart too: a cleared table reports per-run
  /// counts exactly like a freshly constructed one. Not thread-safe.
  void clear();

  // -- Contention accounting -------------------------------------------------
  std::uint64_t lock_acquisitions() const noexcept {
    return acquisitions_.load(std::memory_order_relaxed);
  }
  std::uint64_t contended_acquisitions() const noexcept {
    return contended_.load(std::memory_order_relaxed);
  }
  void reset_contention_counters() noexcept;

 private:
  /// Open-addressing Vid -> Vid map; kInvalidVid keys mark empty slots.
  class FlatMap {
   public:
    /// The value slot for `key`, inserting it (value kInvalidVid) when
    /// absent; `*inserted` reports which.
    Vid& find_or_insert(Vid key, bool* inserted);
    /// The value for `key`, or kInvalidVid.
    Vid find(Vid key) const;
    /// Empty the map, keeping its slots.
    void clear();

   private:
    struct Entry {
      Vid key = kInvalidVid;
      Vid value = kInvalidVid;
    };
    std::size_t home(Vid key) const noexcept {
      return static_cast<std::size_t>(
                 (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >>
                 32) &
             (entries_.size() - 1);
    }
    void grow();

    std::vector<Entry> entries_;  // power-of-two size, or empty
    std::size_t size_ = 0;
  };

  struct Stripe {
    mutable std::mutex mu;
    FlatMap map;
  };

  std::size_t stripe_of(Vid orig) const noexcept {
    // Multiplicative hash so consecutive VIDs spread over stripes.
    return (orig * 0x9e3779b1u) & (stripes_.size() - 1);
  }

  std::vector<Stripe> stripes_;
  std::atomic<Vid> next_id_{0};
  // Dense id -> original vid; guarded by order_mu_.
  mutable std::mutex order_mu_;
  std::vector<Vid> order_;
  mutable std::atomic<std::uint64_t> acquisitions_{0};
  mutable std::atomic<std::uint64_t> contended_{0};
};

}  // namespace gt::sampling
