#include "obs/live/worker_profiler.hpp"

#include <chrono>

namespace gt::obs::live {

namespace {

thread_local WorkerProfiler* t_owner = nullptr;
thread_local void* t_slot = nullptr;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kPrepare:  return "prepare";
    case Stage::kExecute:  return "execute";
    case Stage::kSample:   return "sample";
    case Stage::kReindex:  return "reindex";
    case Stage::kLookup:   return "lookup";
    case Stage::kTransfer: return "transfer";
    case Stage::kForward:  return "fwp";
    case Stage::kBackward: return "bwp";
  }
  return "?";
}

WorkerProfiler& WorkerProfiler::global() {
  // Leaked: instrumented code may run during static destruction.
  static WorkerProfiler* p = new WorkerProfiler();
  return *p;
}

void WorkerProfiler::enable(bool on) noexcept {
  if (on) epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  enabled_.store(on, std::memory_order_relaxed);
}

WorkerProfiler::Slot& WorkerProfiler::local_slot() noexcept {
  if (t_owner == this && t_slot != nullptr)
    return *static_cast<Slot*>(t_slot);
  // Slots wrap past kMaxSlots: with more threads than slots, two threads
  // share an accumulator — the totals stay exact, only the per-worker
  // attribution coarsens. 64 slots comfortably cover the worker + compute
  // pools this repo ever creates.
  const std::uint32_t idx =
      next_.fetch_add(1, std::memory_order_relaxed) % kMaxSlots;
  Slot& slot = slots_[idx];
  slot.used.store(true, std::memory_order_release);
  t_owner = this;
  t_slot = &slot;
  return slot;
}

void WorkerProfiler::add(Stage s, std::uint64_t ns) noexcept {
  local_slot().ns[static_cast<std::size_t>(s)].fetch_add(
      ns, std::memory_order_relaxed);
}

std::uint64_t WorkerProfiler::wall_since_enable_ns() const noexcept {
  const std::int64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  if (epoch == 0) return 0;
  const std::int64_t now = steady_now_ns();
  return now > epoch ? static_cast<std::uint64_t>(now - epoch) : 0;
}

std::vector<WorkerProfiler::SlotSnapshot> WorkerProfiler::snapshot() const {
  std::vector<SlotSnapshot> out;
  for (std::size_t i = 0; i < kMaxSlots; ++i) {
    const Slot& slot = slots_[i];
    if (!slot.used.load(std::memory_order_acquire)) continue;
    SlotSnapshot s;
    s.slot = static_cast<std::uint32_t>(i);
    for (std::size_t j = 0; j < kNumStages; ++j)
      s.stage_ns[j] = slot.ns[j].load(std::memory_order_relaxed);
    // The phase stages partition a worker's busy time; the S/R/K/T/FWP/BWP
    // stages are nested inside them and would double-count.
    s.busy_ns = s.stage_ns[static_cast<std::size_t>(Stage::kPrepare)] +
                s.stage_ns[static_cast<std::size_t>(Stage::kExecute)];
    out.push_back(s);
  }
  return out;
}

std::array<std::uint64_t, kNumStages> WorkerProfiler::stage_totals() const {
  std::array<std::uint64_t, kNumStages> totals{};
  for (const SlotSnapshot& s : snapshot())
    for (std::size_t j = 0; j < kNumStages; ++j) totals[j] += s.stage_ns[j];
  return totals;
}

std::size_t WorkerProfiler::active_slots() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < kMaxSlots; ++i)
    n += slots_[i].used.load(std::memory_order_acquire);
  return n;
}

void WorkerProfiler::reset() noexcept {
  for (std::size_t i = 0; i < kMaxSlots; ++i)
    for (std::size_t j = 0; j < kNumStages; ++j)
      slots_[i].ns[j].store(0, std::memory_order_relaxed);
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

}  // namespace gt::obs::live
