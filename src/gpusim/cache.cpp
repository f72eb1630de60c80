#include "gpusim/cache.hpp"

#include <stdexcept>

namespace gt::gpusim {

namespace {

/// Starting table size: room for one line per 128 bytes of capacity at the
/// 1/2 load bound (1024 lines for a 128 KiB SM), so a fresh device reaches
/// steady state with at most a doubling or two instead of one per power of
/// two from a small table.
std::size_t initial_slots(std::size_t capacity_bytes) {
  std::size_t slots = 16;
  while (slots < 4096 && slots * 64 < capacity_bytes) slots *= 2;
  return slots;
}

}  // namespace

SmCache::SmCache(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes),
      slots_(initial_slots(capacity_bytes)),
      mask_(slots_.size() - 1) {
  if (capacity_bytes > 0xffffffffu)
    throw std::invalid_argument("SmCache: capacity must fit in 32 bits");
}

void SmCache::access_rows(std::uint32_t buffer, std::uint32_t first,
                          std::uint32_t count, std::size_t bytes) {
  if (count != 0 && run_.count == count && run_.buffer == buffer &&
      run_.first == first && run_.bytes == bytes) {
    // Every line is resident, so each access would hit and move its line to
    // the front: the block ends up first, newest line first, and every
    // other line keeps its relative order.
    hit_bytes_ += count * bytes;
    ++spliced_runs_;
    touch(run_.newest, run_.oldest);
    return;
  }
  drop_run();
  for (std::uint32_t i = 0; i < count; ++i)
    access(CacheKey{buffer, first + i, 0}, bytes);
  track_run(buffer, first, count, bytes);
}

void SmCache::drop_run() noexcept {
  run_.count = 0;
  if (++run_id_ == 0) {
    // Wrapped: stale stamps could collide with new ones, as with epoch_.
    for (Node& n : nodes_) n.run = 0;
    run_id_ = 1;
  }
}

void SmCache::track_run(std::uint32_t buffer, std::uint32_t first,
                        std::uint32_t count, std::size_t bytes) noexcept {
  // The run is trackable iff its lines are the `count` most recent, newest
  // first. That fails when the run is wider than the capacity, when a line
  // is oversized (streamed), and when a line resident at another width
  // pushed earlier run lines out.
  std::uint32_t n = head_;
  std::uint32_t oldest = kNil;
  for (std::uint32_t i = count; i-- > 0; n = nodes_[n].next) {
    if (n == kNil || nodes_[n].key != CacheKey{buffer, first + i, 0}) {
      drop_run();  // forget the stamps written so far
      return;
    }
    nodes_[n].run = run_id_;
    oldest = n;
  }
  run_ = Run{buffer, first, count, bytes, head_, oldest};
}

bool SmCache::miss(const CacheKey& key, std::uint32_t hash, std::size_t bytes,
                   std::size_t slot) {
  // Evict until the new line fits. A line larger than the whole cache
  // still loads (streamed) but is not retained.
  loaded_bytes_ += bytes;
  if (bytes > capacity_bytes_) return false;
  bool reprobe = false;
  while (resident_bytes_ + bytes > capacity_bytes_ && tail_ != kNil) {
    evict_lru();
    reprobe = true;  // backward shifts may have moved the insertion slot
  }
  if ((lines_ + 1) * 2 > slots_.size()) {
    grow();
    reprobe = true;
  }
  if (reprobe) slot = probe(key, hash);

  std::uint32_t n;
  if (free_ != kNil) {
    n = free_;
    free_ = nodes_[n].next;
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n] =
      Node{key, hash, static_cast<std::uint32_t>(bytes), 0, kNil, kNil};
  push_front(n, n);
  slots_[slot] = Slot{epoch_, n};
  ++lines_;
  resident_bytes_ += bytes;
  return false;
}

void SmCache::clear() noexcept {
  drop_run();
  nodes_.clear();  // trivially destructible: keeps capacity, frees nothing
  free_ = head_ = tail_ = kNil;
  lines_ = 0;
  resident_bytes_ = 0;
  loaded_bytes_ = 0;
  hit_bytes_ = 0;
  if (++epoch_ == 0) {
    // Epoch wrapped: stale stamps could collide with new ones, so empty
    // the table explicitly once every 2^32 - 1 clears.
    for (Slot& s : slots_) s.epoch = 0;
    epoch_ = 1;
  }
}

void SmCache::evict_lru() noexcept {
  const std::uint32_t victim = tail_;
  if (nodes_[victim].run == run_id_) drop_run();
  std::size_t i = nodes_[victim].hash & mask_;
  while (slots_[i].epoch != epoch_ || slots_[i].node != victim)
    i = (i + 1) & mask_;
  erase_slot(i);
  unlink(victim, victim);
  resident_bytes_ -= nodes_[victim].bytes;
  --lines_;
  nodes_[victim].next = free_;
  free_ = victim;
}

void SmCache::erase_slot(std::size_t slot) noexcept {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever the hole lies between their home slot and where they sit,
  // so every remaining key stays reachable without tombstones.
  std::size_t hole = slot;
  for (std::size_t j = (slot + 1) & mask_; slots_[j].epoch == epoch_;
       j = (j + 1) & mask_) {
    const std::size_t home = nodes_[slots_[j].node].hash & mask_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].epoch = 0;
}

void SmCache::grow() {
  const std::size_t size = slots_.size() * 2;
  slots_.assign(size, Slot{});
  mask_ = size - 1;
  epoch_ = 1;
  for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next) {
    std::size_t i = nodes_[n].hash & mask_;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
    slots_[i] = Slot{epoch_, n};
  }
}

}  // namespace gt::gpusim
