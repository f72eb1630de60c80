// gt::fault — deterministic fault injection for the serving stack.
//
// A FaultPlan is a parsed schedule of injection sites ("throw at
// gpusim.alloc the first time batch 3 allocates"). The service installs
// the plan on the current thread with a PlanScope before running a batch
// attempt; instrumented sites (sampling, reindexing, device allocation,
// kernel launch, host-to-device transfer) call check(), which throws a
// typed InjectedFault when an armed entry matches the thread's batch
// coordinates. With no scope installed — every bench and test that never
// asked for faults — check() is a single thread-local load.
//
// Spec grammar (ServiceOptions::fault_spec; service_cli fills it from
// --fault-spec, or GT_FAULT_SPEC when the flag is absent):
//
//   spec  := entry (';' entry)*
//   entry := site '@' part (':' part)*
//   part  := 'batch=' N | 'layer=' N | 'times=' N | 'always' | 'kind=' k
//   site  := 'preproc.sample' | 'preproc.reindex' | 'gpusim.alloc'
//          | 'gpusim.kernel'  | 'transfer'
//   k     := 'transient' (default) | 'oom' | 'abort'
//
//   e.g. "gpusim.alloc@batch=3:layer=1;preproc.sample@batch=7"
//
// `batch` is required. `layer` is the site's coordinate: the reindex layer
// where the site has a real layer, otherwise the 0-based occurrence of the
// site within the batch attempt (so gpusim.alloc@layer=1 is the second
// allocation); omitted = any. `times` is how many checks fire before the
// entry disarms (default 1 — the retry succeeds); `always` never disarms,
// driving the batch into graceful degradation. Kinds: `transient` faults
// are retryable, `oom` (gpusim.alloc only) is converted by the device into
// GpuOomError and takes the frameworks' existing OOM-report path, and
// `abort` is non-retryable — the service drains its in-flight work and
// rethrows, exercising the exception-safe unwind.
//
// Determinism contract: entries match on exact batch indices and
// deterministic per-attempt coordinates, and the service's backoff is a
// virtual tick counter — so a faulted run that recovers is bit-identical
// to a fault-free run, regardless of worker/thread counts.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gt::fault {

enum class Site : std::uint8_t {
  kPreprocSample = 0,  // neighbor sampling (S)
  kPreprocReindex,     // per-layer reindexing (R)
  kGpusimAlloc,        // device buffer allocation
  kGpusimKernel,       // kernel launch
  kTransfer,           // host-to-device upload of a prepared batch
};
inline constexpr std::size_t kNumSites = 5;

const char* to_string(Site site);
/// False if `text` names no site.
bool parse_site(std::string_view text, Site* out);

enum class Kind : std::uint8_t {
  kTransient,  // retryable: the service backs off and re-runs the batch
  kOom,        // gpusim.alloc only: surfaces as GpuOomError (report path)
  kAbort,      // non-retryable: unwinds run_batches after a full drain
};

inline constexpr std::uint32_t kAnyCoord = 0xffffffffu;
inline constexpr std::uint32_t kForever = 0xffffffffu;

/// Thrown by check() when an armed FaultEntry matches.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(Site site, Kind kind, std::uint64_t batch,
                std::uint32_t coord);
  Site site() const noexcept { return site_; }
  Kind kind() const noexcept { return kind_; }
  std::uint64_t batch() const noexcept { return batch_; }
  std::uint32_t coord() const noexcept { return coord_; }

 private:
  Site site_;
  Kind kind_;
  std::uint64_t batch_;
  std::uint32_t coord_;
};

/// One scheduled injection. `coord` is matched against the layer/occurrence
/// coordinate of the check (kAnyCoord matches every check of the site).
struct FaultEntry {
  Site site = Site::kPreprocSample;
  std::uint64_t batch = 0;
  std::uint32_t coord = kAnyCoord;
  Kind kind = Kind::kTransient;
  std::uint32_t times = 1;  // firings before the entry disarms; kForever = never
  std::uint32_t fired = 0;  // runtime state
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEntry> entries);

  /// Parse the spec grammar above. Throws std::invalid_argument with the
  /// offending entry quoted.
  static FaultPlan parse(const std::string& spec);

  bool empty() const;
  std::size_t entry_count() const;
  std::vector<FaultEntry> entries() const;

  /// Total faults injected so far.
  std::uint64_t injected() const;

  /// Re-arm every entry (fired = 0), e.g. between sweep runs.
  void rearm();

  /// Throws InjectedFault if an armed entry matches. Thread-safe.
  void on_check(Site site, std::uint64_t batch, std::uint32_t coord);

 private:
  mutable std::mutex mu_;
  std::vector<FaultEntry> entries_;
  std::uint64_t injected_ = 0;
};

namespace detail {
/// Thread-local injection state: the armed plan, the batch coordinate of
/// the attempt running on this thread, and per-site occurrence counters
/// (reset at scope entry so retries see identical coordinates).
struct ThreadState {
  FaultPlan* plan = nullptr;
  std::uint64_t batch = 0;
  std::array<std::uint32_t, kNumSites> occurrence{};
};
}  // namespace detail

/// RAII: installs `plan` + the batch coordinate on the current thread for
/// one batch attempt; restores the previous state on destruction (nesting
/// safe). A null plan leaves injection disabled — zero-cost checks.
class PlanScope {
 public:
  PlanScope(FaultPlan* plan, std::uint64_t batch) noexcept;
  ~PlanScope();
  PlanScope(const PlanScope&) = delete;
  PlanScope& operator=(const PlanScope&) = delete;

 private:
  detail::ThreadState saved_;
};

/// True while a PlanScope with a non-null plan is installed on this thread.
bool active() noexcept;

/// Injection site hook. With `coord == kAnyCoord` the site's per-attempt
/// occurrence ordinal is used (and consumed); sites with a natural layer
/// coordinate pass it explicitly. No-op unless a PlanScope is active.
void check(Site site, std::uint32_t coord = kAnyCoord);

}  // namespace gt::fault
