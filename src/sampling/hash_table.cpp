#include "sampling/hash_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace gt::sampling {

namespace {
bool is_power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

VidHashTable::VidHashTable(std::size_t stripes) : stripes_(stripes) {
  if (!is_power_of_two(stripes))
    throw std::invalid_argument("stripe count must be a power of two");
}

Vid VidHashTable::insert_or_get(Vid orig, bool* is_new) {
  Stripe& stripe = stripes_[stripe_of(orig)];
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(stripe.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contended_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  bool inserted = false;
  Vid& id = stripe.map.find_or_insert(orig, &inserted);
  if (inserted) {
    id = next_id_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard order_lock(order_mu_);
    if (id >= order_.size()) order_.resize(id + 1, kInvalidVid);
    order_[id] = orig;
  }
  if (is_new != nullptr) *is_new = inserted;
  return id;
}

Vid VidHashTable::lookup(Vid orig) const {
  const Stripe& stripe = stripes_[stripe_of(orig)];
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(stripe.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contended_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return stripe.map.find(orig);
}

std::vector<Vid> VidHashTable::insertion_order() const {
  std::lock_guard lock(order_mu_);
  return order_;
}

void VidHashTable::insertion_order_into(std::vector<Vid>& out) const {
  std::lock_guard lock(order_mu_);
  out.assign(order_.begin(), order_.end());
}

void VidHashTable::clear() {
  for (Stripe& s : stripes_) s.map.clear();
  next_id_.store(0, std::memory_order_release);
  {
    std::lock_guard lock(order_mu_);
    order_.clear();
  }
  reset_contention_counters();
}

Vid& VidHashTable::FlatMap::find_or_insert(Vid key, bool* inserted) {
  if ((size_ + 1) * 2 > entries_.size()) grow();
  std::size_t i = home(key);
  while (entries_[i].key != key && entries_[i].key != kInvalidVid)
    i = (i + 1) & (entries_.size() - 1);
  *inserted = entries_[i].key == kInvalidVid;
  if (*inserted) {
    entries_[i].key = key;
    ++size_;
  }
  return entries_[i].value;
}

Vid VidHashTable::FlatMap::find(Vid key) const {
  if (entries_.empty()) return kInvalidVid;
  std::size_t i = home(key);
  while (entries_[i].key != key && entries_[i].key != kInvalidVid)
    i = (i + 1) & (entries_.size() - 1);
  return entries_[i].value;  // kInvalidVid in an empty slot
}

void VidHashTable::FlatMap::clear() {
  std::fill(entries_.begin(), entries_.end(), Entry{});
  size_ = 0;
}

void VidHashTable::FlatMap::grow() {
  std::vector<Entry> old(std::max<std::size_t>(16, entries_.size() * 2));
  old.swap(entries_);
  for (const Entry& e : old) {
    if (e.key == kInvalidVid) continue;
    std::size_t i = home(e.key);
    while (entries_[i].key != kInvalidVid) i = (i + 1) & (entries_.size() - 1);
    entries_[i] = e;
  }
}

void VidHashTable::reset_contention_counters() noexcept {
  acquisitions_.store(0, std::memory_order_relaxed);
  contended_.store(0, std::memory_order_relaxed);
}

}  // namespace gt::sampling
