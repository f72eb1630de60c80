#include "gpusim/device.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <string>

#include "fault/fault.hpp"
#include "obs/live/event_log.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace gt::gpusim {

namespace {

/// Registry handles for the simulator's hot pricing path, resolved once.
/// (Registered metrics are never deallocated, so the references are safe.)
struct KernelMetrics {
  obs::Counter& launches = obs::metrics().counter("gpusim.kernel_launches");
  obs::Counter& flops = obs::metrics().counter("gpusim.flops");
  obs::Counter& global_bytes = obs::metrics().counter("gpusim.global_bytes");
  obs::Counter& cache_hit_bytes =
      obs::metrics().counter("gpusim.cache_hit_bytes");
  obs::Counter& cache_loaded_bytes =
      obs::metrics().counter("gpusim.cache_loaded_bytes");
  obs::Counter& atomic_ops = obs::metrics().counter("gpusim.atomic_ops");
};

void record_kernel_metrics(const KernelStats& ks) {
  static KernelMetrics m;
  static std::array<obs::Histogram*, 7> per_category = [] {
    std::array<obs::Histogram*, 7> hs{};
    for (std::size_t c = 0; c < hs.size(); ++c)
      hs[c] = &obs::metrics().histogram(
          std::string("gpusim.kernel_us.") +
          to_string(static_cast<KernelCategory>(c)));
    return hs;
  }();
  m.launches.add(1);
  m.flops.add(ks.flops);
  m.global_bytes.add(ks.global_bytes);
  m.cache_hit_bytes.add(ks.cache_hit_bytes);
  m.cache_loaded_bytes.add(ks.cache_loaded_bytes);
  m.atomic_ops.add(ks.atomic_ops);
  per_category[static_cast<std::size_t>(ks.category)]->observe(ks.latency_us);
}

/// gpusim.alloc injection hook. A kind=oom entry surfaces as GpuOomError —
/// the frameworks' existing report-and-continue OOM path — instead of the
/// retryable InjectedFault every other kind raises.
void emit_oom_event(std::size_t requested, std::size_t available) {
  if (!obs::live::EventLog::global().armed()) return;
  obs::live::Event ev(obs::live::Severity::kWarn, "gpusim.oom");
  ev.msg("device allocation failed")
      .field("requested_bytes", static_cast<std::uint64_t>(requested))
      .field("available_bytes", static_cast<std::uint64_t>(available));
  obs::live::EventLog::global().emit(ev);
}

void maybe_inject_alloc_fault(std::size_t requested, std::size_t capacity,
                              std::size_t used) {
  try {
    fault::check(fault::Site::kGpusimAlloc);
  } catch (const fault::InjectedFault& f) {
    if (f.kind() == fault::Kind::kOom) {
      obs::metrics().counter("gpusim.oom_aborts").add(1);
      emit_oom_event(requested, capacity - used);
      throw GpuOomError(requested, capacity - used);
    }
    throw;
  }
}

}  // namespace

const char* to_string(KernelCategory c) {
  switch (c) {
    case KernelCategory::kAggregation:     return "aggregation";
    case KernelCategory::kEdgeWeight:      return "edge-weight";
    case KernelCategory::kCombination:     return "combination";
    case KernelCategory::kSparse2Dense:    return "sparse2dense";
    case KernelCategory::kFormatTranslate: return "format-translate";
    case KernelCategory::kSampling:        return "sampling";
    case KernelCategory::kOther:           return "other";
  }
  return "?";
}

const char* to_string(KernelPhase p) {
  switch (p) {
    case KernelPhase::kOther:    return "other";
    case KernelPhase::kForward:  return "fwd";
    case KernelPhase::kBackward: return "bwd";
  }
  return "?";
}

KernelStats accumulate(const std::vector<KernelStats>& profile) {
  KernelStats total;
  total.name = "total";
  for (const auto& k : profile) {
    total.latency_us += k.latency_us;
    total.flops += k.flops;
    total.global_bytes += k.global_bytes;
    total.cache_loaded_bytes += k.cache_loaded_bytes;
    total.cache_hit_bytes += k.cache_hit_bytes;
    total.atomic_ops += k.atomic_ops;
    total.blocks += k.blocks;
  }
  return total;
}

KernelStats accumulate(const std::vector<KernelStats>& profile,
                       KernelCategory category) {
  std::vector<KernelStats> filtered;
  for (const auto& k : profile)
    if (k.category == category) filtered.push_back(k);
  KernelStats total = accumulate(filtered);
  total.name = to_string(category);
  total.category = category;
  return total;
}

// ---- Device -----------------------------------------------------------------

Device::Device(DeviceConfig config) : config_(config) {
  sms_.reserve(config_.num_sms);
  for (std::size_t i = 0; i < config_.num_sms; ++i)
    sms_.emplace_back(config_.cache_bytes_per_sm);
}

void Device::track_alloc(std::size_t bytes) {
  if (in_kernel_)
    throw std::logic_error("device allocation inside a kernel is forbidden");
  maybe_inject_alloc_fault(bytes, config_.memory_capacity_bytes, used_bytes_);
  if (used_bytes_ + bytes > config_.memory_capacity_bytes) {
    obs::metrics().counter("gpusim.oom_aborts").add(1);
    emit_oom_event(bytes, config_.memory_capacity_bytes - used_bytes_);
    throw GpuOomError(bytes, config_.memory_capacity_bytes - used_bytes_);
  }
  used_bytes_ += bytes;
  peak_bytes_ = std::max(peak_bytes_, used_bytes_);
  ++alloc_count_;
}

BufferId Device::alloc_f32(std::size_t rows, std::size_t cols,
                           std::string name, HostStorage storage) {
  track_alloc(rows * cols * sizeof(float));
  Buffer& b = next_buffer(std::move(name), rows, cols);
  b.footprint_only = storage == HostStorage::kNone;
  switch (storage) {
    case HostStorage::kZeroed:
      b.f32.assign(rows * cols, 0.0f);
      break;
    case HostStorage::kUninitialized:
      b.f32.clear();  // keeps a reused slot's capacity, writes nothing
      if constexpr (kPoisonUninitialized)
        b.f32.assign(rows * cols, std::numeric_limits<float>::quiet_NaN());
      else
        b.f32.resize(rows * cols);
      break;
    case HostStorage::kNone:
      decltype(b.f32)().swap(b.f32);
      break;
  }
  std::vector<std::uint32_t>().swap(b.u32);  // a kept slot's other type
  return static_cast<BufferId>(buffer_count_ - 1);
}

BufferId Device::alloc_u32(std::size_t count, std::string name) {
  track_alloc(count * sizeof(std::uint32_t));
  Buffer& b = next_buffer(std::move(name), count, 1);
  b.footprint_only = false;
  b.u32.assign(count, 0);
  decltype(b.f32)().swap(b.f32);  // a kept slot's other type
  return static_cast<BufferId>(buffer_count_ - 1);
}

Device::Buffer& Device::next_buffer(std::string name, std::size_t rows,
                                    std::size_t cols) {
  if (buffer_count_ == buffers_.size()) buffers_.emplace_back();
  Buffer& b = buffers_[buffer_count_++];
  b.name = std::move(name);
  b.rows = rows;
  b.cols = cols;
  b.live = true;
  return b;
}

void Device::free(BufferId id) {
  Buffer& b = live_buffer(id);
  used_bytes_ -= b.bytes();
  b.f32.clear();
  b.f32.shrink_to_fit();
  b.u32.clear();
  b.u32.shrink_to_fit();
  b.live = false;
}

Device::Buffer& Device::live_buffer(BufferId id) {
  if (id >= buffer_count_ || !buffers_[id].live)
    throw std::out_of_range("invalid or freed device buffer");
  return buffers_[id];
}

const Device::Buffer& Device::live_buffer(BufferId id) const {
  if (id >= buffer_count_ || !buffers_[id].live)
    throw std::out_of_range("invalid or freed device buffer");
  return buffers_[id];
}

void Device::require_host_storage(const Buffer& b) {
  if (b.footprint_only)
    throw std::logic_error("device buffer '" + b.name +
                           "' is a modeled footprint with no host storage");
}

std::span<float> Device::f32(BufferId id) {
  Buffer& b = live_buffer(id);
  require_host_storage(b);
  return b.f32;
}
std::span<const float> Device::f32(BufferId id) const {
  const Buffer& b = live_buffer(id);
  require_host_storage(b);
  return b.f32;
}
std::span<std::uint32_t> Device::u32(BufferId id) {
  return live_buffer(id).u32;
}
std::span<const std::uint32_t> Device::u32(BufferId id) const {
  return live_buffer(id).u32;
}

std::size_t Device::rows(BufferId id) const { return live_buffer(id).rows; }
std::size_t Device::cols(BufferId id) const { return live_buffer(id).cols; }
std::size_t Device::buffer_bytes(BufferId id) const {
  return live_buffer(id).bytes();
}

MemoryStats Device::memory_stats() const noexcept {
  return MemoryStats{used_bytes_, peak_bytes_, config_.memory_capacity_bytes,
                     alloc_count_};
}

void Device::reset_peak() noexcept { peak_bytes_ = used_bytes_; }

void Device::reset() noexcept {
  for (std::size_t i = 0; i < buffer_count_; ++i) buffers_[i].live = false;
  buffer_count_ = 0;
  used_bytes_ = 0;
  peak_bytes_ = 0;
  alloc_count_ = 0;
  in_kernel_ = false;
  profile_.clear();
  launches_ = 0;
  phase_ = KernelPhase::kOther;
}

KernelStats Device::run_kernel(const std::string& name,
                               KernelCategory category,
                               std::size_t num_blocks,
                               const std::function<void(BlockCtx&)>& body,
                               BlockSafety safety) {
  ++launches_;  // counter and fault check must stay 1:1 (occurrence domain)
  fault::check(fault::Site::kGpusimKernel);
  // Fresh per-kernel SM state: caches do not persist useful data across
  // kernel boundaries in this model.
  for (auto& sm : sms_) {
    sm.cache.clear();
    sm.flops = 0;
    sm.raw_global_bytes = 0;
    sm.atomics = 0;
  }

  // Parallel path: shard blocks by their assigned SM and run each SM's
  // block sequence (b = sm, sm + S, sm + 2S, ...) on a pool worker. Per-SM
  // simulator state is touched only by that SM's thread and blocks of one
  // SM keep their serial order, so every SmState — and therefore the priced
  // KernelStats — is bit-identical to the serial loop below.
  ThreadPool* pool =
      safety == BlockSafety::kSerial ? nullptr : compute_pool();
  const bool parallel = pool != nullptr && !on_compute_worker() &&
                        num_blocks > 1 && config_.num_sms > 1;
  in_kernel_ = true;
  if (parallel) {
    const std::size_t num_sms = config_.num_sms;
    pool->parallel_for(
        0, num_sms, compute_threads(),
        [this, &body, num_blocks, num_sms](std::size_t, std::size_t lo,
                                           std::size_t hi) {
          detail::ComputeWorkerScope scope;
          for (std::size_t sm = lo; sm < hi; ++sm) {
            for (std::size_t b = sm; b < num_blocks; b += num_sms) {
              BlockCtx ctx(sms_[sm], b, sm);
              body(ctx);
            }
          }
        });
  } else {
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const std::size_t sm = b % config_.num_sms;
      BlockCtx ctx(sms_[sm], b, sm);
      body(ctx);
    }
  }
  in_kernel_ = false;

  // Price the kernel. Compute throughput and DRAM bandwidth are
  // device-wide resources shared by all SMs; a single SM can draw at most
  // ~1/8 of the DRAM bandwidth and 1/num_sms of the FLOP rate. The kernel
  // finishes when both the device-wide totals are served and the hottest
  // SM (load imbalance) is done.
  const CostParams& cp = config_.cost;
  KernelStats ks;
  ks.name = name;
  ks.category = category;
  ks.phase = phase_;
  ks.blocks = num_blocks;
  const double flop_rate = category == KernelCategory::kCombination
                               ? cp.dense_flops_per_us
                               : cp.flops_per_us;
  const double sm_flop_rate = flop_rate / static_cast<double>(config_.num_sms);
  const double sm_bw = cp.global_bw_bytes_per_us / 8.0;
  double max_sm_us = 0.0;
  for (const auto& sm : sms_) {
    const std::size_t miss = sm.cache.loaded_bytes();
    const std::size_t hit = sm.cache.hit_bytes();
    const double t = static_cast<double>(sm.flops) / sm_flop_rate +
                     static_cast<double>(miss + sm.raw_global_bytes) / sm_bw +
                     static_cast<double>(hit) / cp.cache_bw_bytes_per_us +
                     static_cast<double>(sm.atomics) * cp.atomic_penalty_us;
    max_sm_us = std::max(max_sm_us, t);
    ks.flops += sm.flops;
    ks.global_bytes += miss + sm.raw_global_bytes;
    ks.cache_loaded_bytes += miss;
    ks.cache_hit_bytes += hit;
    ks.atomic_ops += sm.atomics;
  }
  const double device_us =
      static_cast<double>(ks.flops) / flop_rate +
      static_cast<double>(ks.global_bytes) / cp.global_bw_bytes_per_us;
  ks.latency_us = cp.launch_overhead_us + std::max(device_us, max_sm_us);
  record_kernel_metrics(ks);
  profile_.push_back(ks);
  return ks;
}

KernelStats Device::charge_kernel(const std::string& name,
                                  KernelCategory category,
                                  std::uint64_t flops,
                                  std::size_t global_bytes, double extra_us) {
  const CostParams& cp = config_.cost;
  KernelStats ks;
  ks.name = name;
  ks.category = category;
  ks.phase = phase_;
  ks.flops = flops;
  ks.global_bytes = global_bytes;
  // Synthetic kernels (sorts, memsets) are bandwidth-dominated and spread
  // across all SMs; we charge aggregate traffic at full device bandwidth.
  const double flop_rate = category == KernelCategory::kCombination
                               ? cp.dense_flops_per_us
                               : cp.flops_per_us;
  ks.latency_us = cp.launch_overhead_us + extra_us +
                  static_cast<double>(flops) /
                      (flop_rate * static_cast<double>(config_.num_sms)) +
                  static_cast<double>(global_bytes) / cp.global_bw_bytes_per_us;
  record_kernel_metrics(ks);
  profile_.push_back(ks);
  return ks;
}

void Device::charge_alloc_overhead(const std::string& name,
                                   std::size_t count) {
  KernelStats ks;
  ks.name = name;
  ks.category = KernelCategory::kOther;
  ks.phase = phase_;
  ks.latency_us = config_.cost.alloc_overhead_us * static_cast<double>(count);
  profile_.push_back(ks);
}

double Device::profile_latency_us() const noexcept {
  double total = 0.0;
  for (const auto& k : profile_) total += k.latency_us;
  return total;
}

}  // namespace gt::gpusim
