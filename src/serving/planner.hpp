// ServePlanner: the deterministic heart of the serving front end, and the
// one owner of every request's fate.
//
// Pulls the seeded arrival schedule through admission control and the
// dynamic batcher, yielding one PlannedBatch at a time. All planning runs
// on the *predicted* clock: the server lane is assumed to free one
// cost-model batch-estimate after each close. Because the estimate is
// frozen (admission.hpp) and arrivals are open-loop, planning never needs
// an execution result — the serve loop can therefore keep `workers`
// planned batches in flight through the prepare ring exactly like
// train_batches does, and the plan replays bit-identically for every
// worker count.
//
// The planner remembers the batches next() hands out. As each one
// executes, complete() re-prices it on the *measured* clock (the batch's
// real e2e instead of the estimate) and decides its riders: completed
// with a latency, or degraded. report() then assembles the ServeReport.
// Admit, shed, batch, price and report: every outcome is decided here;
// the serve loop only executes batches and publishes metrics.
//
// Lifecycle: the planner starts its RequestQueue on construction and the
// owner must end it through finish() (normal exit) or shutdown() (unwind
// path) — both leave the queue `stopped`, the latter recording every
// still-queued request, and every rider of a batch still in flight, as
// kShedShutdown.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "serving/admission.hpp"
#include "serving/arrival.hpp"
#include "serving/batcher.hpp"
#include "serving/request_queue.hpp"
#include "serving/types.hpp"

namespace gt::serving {

/// Everything a serve() run needs, with CLI-friendly defaults.
struct ServeConfig {
  ArrivalConfig arrival;               ///< open-loop traffic process
  std::size_t requests = 64;           ///< total arrivals to generate
  std::uint32_t vertices_per_request = 32;  ///< dst vertices per request
  Tick slo_ticks = 0;                  ///< deadline; 0 = no shedding
  std::size_t queue_depth = 64;        ///< RequestQueue capacity
  BatchPolicy batch;                   ///< coalescing policy
  /// Warm-up batches executed before the queue opens: they fit the DKP
  /// cost model and seed the admission estimate with a priced e2e.
  std::size_t warmup_batches = 1;
};

struct PlannedBatch {
  std::uint64_t ordinal = 0;       ///< 0-based serving batch number
  Tick form_tick = 0;              ///< close time on the predicted clock
  std::vector<std::uint64_t> request_ids;  ///< boarding order = arrival order
  std::uint32_t total_vertices = 0;
};

class ServePlanner {
 public:
  ServePlanner(const ServeConfig& config, Tick est_batch_ticks);

  /// Throws std::invalid_argument for configs no planner could honor
  /// (zero batch size, zero vertices, batch-size overflow, unusable
  /// arrival process). The constructor calls this; serve() calls it
  /// up front so a bad config fails before warm-up burns batches.
  static void validate(const ServeConfig& config);

  /// Next planned batch, or nullopt once every arrival is decided and the
  /// queue is empty. Decisions are made strictly in virtual-tick order;
  /// at a tie between an arrival and a batch close, the close happens
  /// first (the departing batch cannot see a same-tick arrival). The
  /// batch stays in flight until complete() prices it.
  std::optional<PlannedBatch> next();

  /// Prices the oldest batch still in flight on the measured clock and
  /// returns it (batches execute in plan order). It starts at
  /// max(lane free, form_tick) and holds the lane for its rounded e2e, at
  /// least one tick; its riders complete with latency = lane free −
  /// arrival. A batch that degraded or ran out of memory (`ok` false)
  /// holds the lane for one estimate, so the requests behind it feel the
  /// outage, and its riders come back kDegraded. Throws std::logic_error
  /// when no batch is in flight.
  PlannedBatch complete(bool ok, double end_to_end_us);

  /// Normal end of planning: stops the queue (it is empty by then).
  void finish();

  /// Unwind path: drain whatever is still queued, then the riders of
  /// every batch still in flight (the one whose execution threw
  /// included), as kShedShutdown, and stop. shed_shutdown then accounts
  /// for every admitted request that neither completed nor degraded.
  /// Only the first call after start() acts; later calls, and calls
  /// after finish(), are no-ops.
  void shutdown() noexcept;

  /// The run's summary, called once after finish(): outcome counts over
  /// the priced batches, mean fill, the span from the first arrival to the
  /// last event, nearest-rank p50/p95/p99 of the completed latencies and
  /// goodput (completions within the SLO, every completion when there is
  /// none). Moves the records out.
  ServeReport report();

  // Running tallies, valid after every next() and complete() call (the
  // serve loop publishes the deltas as serving.* counters between
  // batches).
  std::uint64_t arrived() const noexcept { return arrived_; }
  std::uint64_t admitted() const noexcept { return admitted_; }
  std::uint64_t shed_slo() const noexcept { return shed_slo_; }
  std::uint64_t shed_queue_full() const noexcept { return shed_queue_full_; }
  std::uint64_t shed_shutdown() const noexcept { return shed_shutdown_; }
  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t degraded() const noexcept { return degraded_; }
  std::uint64_t batches() const noexcept { return priced_; }
  std::size_t queue_size() const noexcept { return queue_.size(); }
  std::size_t queue_peak() const noexcept { return queue_.peak_size(); }
  Lifecycle queue_state() const noexcept { return queue_.state(); }

  /// Per-request ledger, indexed by request id. Shed outcomes are final
  /// as soon as the planner decides them; admitted requests keep their
  /// batch assignment here and receive their outcome from complete().
  std::vector<RequestRecord>& records() noexcept { return records_; }
  const std::vector<RequestRecord>& records() const noexcept {
    return records_;
  }

 private:
  void process_arrival();

  ServeConfig config_;
  std::vector<Tick> arrivals_;
  std::size_t next_arrival_ = 0;
  RequestQueue queue_;
  DynamicBatcher batcher_;
  AdmissionController admission_;
  Tick server_free_ = 0;  // predicted clock
  std::uint64_t next_ordinal_ = 0;
  std::deque<PlannedBatch> in_flight_;  // handed out, not yet priced
  Tick lane_free_ = 0;                  // measured clock
  std::vector<RequestRecord> records_;
  std::uint64_t arrived_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_slo_ = 0;
  std::uint64_t shed_queue_full_ = 0;
  std::uint64_t shed_shutdown_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t priced_ = 0;  // batches complete() priced
};

}  // namespace gt::serving
