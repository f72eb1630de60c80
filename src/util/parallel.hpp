// Process-wide compute engine: one shared ThreadPool used by the simulated
// device's kernel engine (per-SM block execution) and the dense tensor ops
// (row-tile parallel matmuls).
//
// Determinism contract: everything dispatched through this engine must
// produce bit-identical results for any thread count, including 1. The
// device engine guarantees this by sharding blocks by their SM (per-SM
// simulator state is independent and blocks of one SM run in block order on
// one thread); the tensor ops guarantee it by making each output row's
// accumulation order independent of the chunk boundaries. Anything that
// cannot meet the contract must not use the engine (declare the kernel
// BlockSafety::kSerial instead).
//
// Re-entrancy: work running *on* a compute worker never fans out again —
// nested parallel sections run inline on the worker. This makes the engine
// deadlock-free by construction (a worker never blocks on the pool it
// occupies) without needing work stealing.
#pragma once

#include <cstddef>

#include "util/thread_pool.hpp"

namespace gt {

/// Hard ceiling applied to environment-supplied thread counts; a typo'd
/// GT_COMPUTE_THREADS=999 must not fork-bomb the host.
inline constexpr std::size_t kMaxComputeThreads = 64;

/// Parse a thread-count string (GT_COMPUTE_THREADS): a fully consumed
/// positive decimal, surrounding whitespace allowed, clamped to
/// [1, kMaxComputeThreads]. On success sets *valid = true and returns the
/// count; on any reject (null, empty, trailing garbage, zero, negative)
/// sets *valid = false and returns 0.
std::size_t parse_thread_count(const char* text, bool* valid);

/// Number of compute threads the engine is configured for (>= 1).
/// Initialized lazily from GT_COMPUTE_THREADS (validated via
/// parse_thread_count, invalid values warn and fall through), else from
/// hardware_concurrency clamped to [1, 16].
std::size_t compute_threads();

/// Reconfigure the engine. n == 0 restores the environment/hardware
/// default. The pool is (re)created lazily on the next parallel section;
/// with n == 1 no pool exists and everything runs inline. Not thread-safe
/// against concurrently running parallel sections — call between batches.
void set_compute_threads(std::size_t n);

/// The shared pool, or nullptr when compute_threads() == 1. Workers are
/// spawned on first use.
ThreadPool* compute_pool();

/// True on a compute-pool worker thread (nested sections must run inline).
bool on_compute_worker();

namespace detail {
/// RAII marker for worker-side execution; used by the engine internals.
class ComputeWorkerScope {
 public:
  ComputeWorkerScope();
  ~ComputeWorkerScope();
  ComputeWorkerScope(const ComputeWorkerScope&) = delete;
  ComputeWorkerScope& operator=(const ComputeWorkerScope&) = delete;
};
}  // namespace detail

/// Deterministic parallel-for over [begin, end): splits into
/// compute_threads() ceil-division chunks on the shared pool and blocks
/// until done. fn(lo, hi) must be chunk-invariant (see the contract above).
/// Runs inline when the engine is serial, the range is empty, or the caller
/// is already a compute worker.
template <typename F>
void compute_parallel_for(std::size_t begin, std::size_t end, F&& fn) {
  if (end <= begin) return;
  ThreadPool* pool = compute_pool();
  if (pool == nullptr || on_compute_worker() || end - begin == 1) {
    fn(begin, end);
    return;
  }
  pool->parallel_for(begin, end, compute_threads(),
                     [&fn](std::size_t, std::size_t lo, std::size_t hi) {
                       detail::ComputeWorkerScope scope;
                       fn(lo, hi);
                     });
}

}  // namespace gt
