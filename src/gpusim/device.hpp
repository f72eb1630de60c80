// The simulated GPU device.
//
// Numerics are real: device buffers are host vectors and kernels compute
// actual float math, so every framework implementation is testable for
// correctness against a serial reference. Performance is modelled: each
// kernel is launched as a grid of thread blocks, blocks are assigned to SMs
// round-robin, per-SM LRU caches track embedding-row traffic, and the
// latency model prices per-SM compute + memory work. See DESIGN.md §2 for
// why this substitution preserves the paper's claims.
//
// A float buffer's host storage comes in three kinds (HostStorage, DESIGN.md
// §9): zero-filled for kernels that accumulate into their output,
// unfilled for buffers the caller overwrites in full (uploads, assembled
// tables, dense products), and none at all for staging buffers whose rows
// nothing reads. All three account identically: the modeled footprint is
// rows x cols, whatever the host holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/config.hpp"
#include "gpusim/stats.hpp"

namespace gt::gpusim {

using BufferId = std::uint32_t;
inline constexpr BufferId kInvalidBuffer = ~0u;

/// What a float buffer's host storage holds when alloc_f32 returns it.
enum class HostStorage : std::uint8_t {
  /// Every element +0.0f: for kernels that accumulate into the buffer.
  kZeroed,
  /// Unspecified: the caller overwrites every element before anything
  /// reads it. In builds with assertions (no NDEBUG) every element starts
  /// as a quiet NaN, so an element the writer misses poisons the results.
  kUninitialized,
  /// No host storage: the buffer is a modeled footprint only (kernels may
  /// name it in BlockCtx calls), and f32() on it throws std::logic_error.
  kNone,
};

/// True where HostStorage::kUninitialized buffers start as NaN.
#ifdef NDEBUG
inline constexpr bool kPoisonUninitialized = false;
#else
inline constexpr bool kPoisonUninitialized = true;
#endif

/// How a kernel's thread blocks may be executed on the host.
///
/// The simulator's per-SM state (cache, flop/byte/atomic tallies) is
/// independent by construction, and blocks assigned to one SM always run
/// in block order on one host thread — so KernelStats are bit-identical to
/// serial execution for every safety class. What the declaration governs
/// is the *numerics*: whether the kernel body's real float math is safe to
/// run from several host threads at once.
enum class BlockSafety {
  /// Blocks may share mutable host state (edge-wise scatter-adds writing
  /// the same destination row, seed flags, ...). Blocks run serially on
  /// the calling thread regardless of the compute-engine configuration.
  kSerial,
  /// Blocks write disjoint host memory (vertex-centric NAPA / Pull /
  /// Apply kernels: one destination row per block). Each SM's block
  /// sequence runs on a pool worker; results are bit-identical to serial.
  kParallel,
};

/// Thrown when an allocation exceeds device capacity — reproduces the
/// paper's livejournal out-of-memory failure for PyG/GNNAdvisor NGCF.
class GpuOomError : public std::runtime_error {
 public:
  GpuOomError(std::size_t requested, std::size_t available)
      : std::runtime_error("gpu out of memory: requested " +
                           std::to_string(requested) + "B, available " +
                           std::to_string(available) + "B"),
        requested_bytes(requested),
        available_bytes(available) {}
  std::size_t requested_bytes;
  std::size_t available_bytes;
};

/// One SM's simulator state for the running kernel: its cache and its
/// flop/byte/atomic tallies. Touched only by the host thread running that
/// SM's blocks.
struct SmState {
  SmCache cache;
  std::uint64_t flops = 0;
  std::size_t raw_global_bytes = 0;
  std::uint64_t atomics = 0;
  explicit SmState(std::size_t cache_bytes) : cache(cache_bytes) {}
};

/// Handle passed to a kernel body once per thread block. All modelling
/// calls are forwarded to the per-SM state of the block's SM.
class BlockCtx {
 public:
  std::size_t block_id() const noexcept { return block_; }
  std::size_t sm_id() const noexcept { return sm_; }

  /// Model a read of row `row` (feature-chunk `chunk`) of `buf`,
  /// `bytes` wide. Charged as a cache access on this block's SM.
  void load(BufferId buf, std::uint32_t row, std::size_t bytes,
            std::uint32_t chunk = 0) {
    state_.cache.access(CacheKey{buf, row, chunk}, bytes);
  }

  /// Model reads of rows first .. first + count - 1 of `buf` (chunk 0),
  /// `bytes` each, in ascending order: exactly `count` load() calls. A
  /// block that streams the same rows as the SM's previous such call (the
  /// dense Apply kernels' weight rows) costs one LRU splice while the rows
  /// stay resident (SmCache::access_rows).
  void load_rows(BufferId buf, std::uint32_t first, std::uint32_t count,
                 std::size_t bytes) {
    state_.cache.access_rows(buf, first, count, bytes);
  }

  /// Model a write: write-through (global traffic) + write-allocate.
  void store(BufferId buf, std::uint32_t row, std::size_t bytes,
             std::uint32_t chunk = 0) {
    // The store always reaches DRAM; write-allocate keeps the line
    // resident for subsequent reuse (NAPA accumulators rely on this).
    state_.raw_global_bytes += bytes;
    state_.cache.access(CacheKey{buf, row, chunk}, bytes);
  }

  /// Uncached global traffic (graph-structure index reads, etc.).
  void global_read(std::size_t bytes) { state_.raw_global_bytes += bytes; }
  void global_write(std::size_t bytes) { state_.raw_global_bytes += bytes; }

  /// Arithmetic work.
  void flops(std::uint64_t n) { state_.flops += n; }

  /// Atomic read-modify-write on shared output (GNNAdvisor-style partial
  /// aggregation): charged a serialization penalty.
  void atomic(std::uint64_t n = 1) { state_.atomics += n; }

 private:
  friend class Device;
  BlockCtx(SmState& state, std::size_t block, std::size_t sm)
      : state_(state), block_(block), sm_(sm) {}
  SmState& state_;
  std::size_t block_;
  std::size_t sm_;
};

class Device {
 public:
  explicit Device(DeviceConfig config = {});

  const DeviceConfig& config() const noexcept { return config_; }

  // -- Memory management ----------------------------------------------------
  /// Allocate a float32 buffer of rows x cols whose host storage is
  /// `storage`. Every kind checks the gpusim.alloc fault site, throws
  /// GpuOomError past capacity, and moves the used/peak/allocation counts
  /// by the same rows x cols x 4 bytes.
  BufferId alloc_f32(std::size_t rows, std::size_t cols, std::string name,
                     HostStorage storage = HostStorage::kZeroed);
  /// Allocate an index buffer of `count` u32 entries.
  BufferId alloc_u32(std::size_t count, std::string name);
  void free(BufferId id);

  /// A float buffer's host storage. Throws std::logic_error for a buffer
  /// allocated with HostStorage::kNone.
  std::span<float> f32(BufferId id);
  std::span<const float> f32(BufferId id) const;
  std::span<std::uint32_t> u32(BufferId id);
  std::span<const std::uint32_t> u32(BufferId id) const;

  std::size_t rows(BufferId id) const;
  std::size_t cols(BufferId id) const;
  std::size_t buffer_bytes(BufferId id) const;

  MemoryStats memory_stats() const noexcept;
  void reset_peak() noexcept;

  /// Restore the state of a freshly constructed device: buffer ids restart
  /// at 0, used/peak/alloc counts and kernel_launch_count() are 0, the
  /// profile is empty, the phase is kOther and no kernel is running (a
  /// kernel body that threw leaves the device inside its kernel until
  /// here). Host-side capacity is kept: the SM caches' tables and pools,
  /// and the storage of every buffer still live at reset — an allocation
  /// that lands in such a slot reuses it, filled as its HostStorage says.
  /// free() keeps releasing storage, so buffers a batch frees are not
  /// retained.
  void reset() noexcept;

  // -- Kernel execution -----------------------------------------------------
  /// Launch `num_blocks` thread blocks; `body` is invoked once per block
  /// with a BlockCtx bound to the block's SM (round-robin assignment,
  /// matching how a grid fills SMs). Returns the priced KernelStats and
  /// appends it to the profile. Allocation inside a kernel is forbidden.
  ///
  /// With a parallel-safe `safety` declaration and a multi-threaded
  /// compute engine (gt::set_compute_threads), blocks are sharded by their
  /// SM and each SM's block sequence runs on a pool worker. Simulated
  /// KernelStats — flops, global/cache bytes, atomics, priced µs — are
  /// bit-identical to serial execution in every mode.
  KernelStats run_kernel(const std::string& name, KernelCategory category,
                         std::size_t num_blocks,
                         const std::function<void(BlockCtx&)>& body,
                         BlockSafety safety = BlockSafety::kSerial);

  /// Charge a synthetic kernel (e.g. device-side sort during format
  /// translation) without executing per-block bodies.
  KernelStats charge_kernel(const std::string& name, KernelCategory category,
                            std::uint64_t flops, std::size_t global_bytes,
                            double extra_us = 0.0);

  /// Charge allocation overhead latency (cudaMalloc-like) to the profile.
  void charge_alloc_overhead(const std::string& name, std::size_t count = 1);

  const std::vector<KernelStats>& profile() const noexcept { return profile_; }
  void clear_profile() { profile_.clear(); }

  /// Training phase stamped onto every profile entry appended from now on
  /// (run_kernel and the synthetic charges alike). Frameworks flip this at
  /// their FWP/BWP boundaries so per-phase profile sums match the
  /// fwp_us/bwp_us they derive from the same boundaries. Pure labeling:
  /// pricing, numerics, and launch counting are untouched.
  void set_phase(KernelPhase phase) noexcept { phase_ = phase; }
  KernelPhase phase() const noexcept { return phase_; }

  /// run_kernel calls since construction or the last reset() — exactly
  /// the gt::fault `gpusim.kernel` occurrence domain for the batch attempt
  /// that reset this device (charge_kernel / charge_alloc_overhead price
  /// synthetic work and are not launch sites). Not reset by
  /// clear_profile(), so a fault `layer=` coordinate in
  /// [0, kernel_launch_count()) always lands on a real launch.
  std::uint64_t kernel_launch_count() const noexcept { return launches_; }

  /// Sum of latencies currently in the profile.
  double profile_latency_us() const noexcept;

 private:
  /// std::allocator whose value-less construct() default-initializes, so
  /// resize() leaves new floats unwritten instead of zeroing them.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
    template <typename U>
    void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  static_assert(sizeof(float) == sizeof(std::uint32_t));
  struct Buffer {
    std::string name;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<float, DefaultInitAllocator<float>> f32;
    std::vector<std::uint32_t> u32;
    bool footprint_only = false;  // HostStorage::kNone
    bool live = false;
    /// Modeled footprint: rows x cols 4-byte elements, for every kind.
    std::size_t bytes() const noexcept { return rows * cols * sizeof(float); }
  };

  Buffer& live_buffer(BufferId id);
  const Buffer& live_buffer(BufferId id) const;
  /// Throws std::logic_error for a HostStorage::kNone buffer.
  static void require_host_storage(const Buffer& b);
  /// The allocation checks every kind shares: no allocation inside a
  /// kernel, the gpusim.alloc fault site, and capacity.
  void track_alloc(std::size_t bytes);
  /// The slot for the next buffer id, reused when a slot from before the
  /// last reset() is left.
  Buffer& next_buffer(std::string name, std::size_t rows, std::size_t cols);

  DeviceConfig config_;
  std::vector<Buffer> buffers_;  // ids [0, buffer_count_) are allocated
  std::size_t buffer_count_ = 0;
  std::size_t used_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::size_t alloc_count_ = 0;
  std::vector<SmState> sms_;
  bool in_kernel_ = false;
  std::vector<KernelStats> profile_;
  std::uint64_t launches_ = 0;  // run_kernel calls (fault-check 1:1)
  KernelPhase phase_ = KernelPhase::kOther;  // stamped onto profile entries
};

}  // namespace gt::gpusim
