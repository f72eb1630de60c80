#include "serving/planner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/stats.hpp"

namespace gt::serving {

const char* to_string(Outcome o) noexcept {
  switch (o) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kShedSlo: return "shed_slo";
    case Outcome::kShedQueueFull: return "shed_queue_full";
    case Outcome::kShedShutdown: return "shed_shutdown";
    case Outcome::kDegraded: return "degraded";
  }
  return "?";
}

void ServePlanner::validate(const ServeConfig& config) {
  if (config.batch.max_batch_requests == 0)
    throw std::invalid_argument("ServePlanner: max_batch_requests must be > 0");
  if (config.vertices_per_request == 0)
    throw std::invalid_argument(
        "ServePlanner: vertices_per_request must be > 0");
  if (static_cast<std::uint64_t>(config.batch.max_batch_requests) *
          config.vertices_per_request >
      0xffffffffull)
    throw std::invalid_argument(
        "ServePlanner: max_batch_requests * vertices_per_request overflows "
        "a batch size");
  TrafficGenerator probe(config.arrival);  // arrival-config validation
  (void)probe;
}

ServePlanner::ServePlanner(const ServeConfig& config, Tick est_batch_ticks)
    : config_(config),
      queue_(config.queue_depth),
      batcher_(config.batch),
      admission_(config.slo_ticks, config.batch.max_batch_requests) {
  validate(config_);
  admission_.set_estimate(est_batch_ticks);
  arrivals_ = TrafficGenerator(config_.arrival).generate(config_.requests);
  records_.reserve(config_.requests);
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    RequestRecord rec;
    rec.id = i;
    rec.arrival_tick = arrivals_[i];
    // Placeholder until admission (shed) or complete() (completed or
    // degraded) decides it; an unwound run leaves it as-is.
    rec.outcome = Outcome::kShedShutdown;
    records_.push_back(rec);
  }
  queue_.start();
}

void ServePlanner::process_arrival() {
  const std::size_t id = next_arrival_;
  const Tick now = arrivals_[next_arrival_];
  ++next_arrival_;
  ++arrived_;
  Request r;
  r.id = id;
  r.arrival_tick = now;
  r.vertices = config_.vertices_per_request;
  if (!admission_.admit(now, server_free_, queue_.size())) {
    records_[id].outcome = Outcome::kShedSlo;
    records_[id].latency_ticks = 0;
    ++shed_slo_;
    return;
  }
  if (!queue_.push(r)) {
    records_[id].outcome = Outcome::kShedQueueFull;
    records_[id].latency_ticks = 0;
    ++shed_queue_full_;
    return;
  }
  ++admitted_;
}

std::optional<PlannedBatch> ServePlanner::next() {
  const std::size_t total = arrivals_.size();
  for (;;) {
    if (queue_.empty()) {
      if (next_arrival_ >= total) return std::nullopt;
      process_arrival();
      continue;
    }
    const bool more = next_arrival_ < total;
    const Tick close = batcher_.close_tick(queue_, server_free_, more);
    // Strict virtual-tick event order; on a tie the close wins (the
    // departing batch cannot see a same-tick arrival).
    if (more && arrivals_[next_arrival_] < close) {
      process_arrival();
      continue;
    }
    PlannedBatch b;
    b.ordinal = next_ordinal_++;
    std::vector<Request> taken;
    batcher_.take(queue_, taken);
    b.request_ids.reserve(taken.size());
    // A batch cannot form before its newest member arrived: size-triggered
    // and flush closes return `server_free`, which predates the queue
    // contents whenever the lane went idle (e.g. the very first batch).
    // Clamping keeps every priced latency non-negative. The clamp cannot
    // reorder events: every taken request arrived strictly before the next
    // pending arrival, so the raised tick still precedes it.
    Tick form = close;
    for (const Request& r : taken) {
      records_[r.id].batch = b.ordinal;
      b.request_ids.push_back(r.id);
      b.total_vertices += r.vertices;
      if (r.arrival_tick > form) form = r.arrival_tick;
    }
    b.form_tick = form;
    server_free_ = form + admission_.est_batch_ticks();
    in_flight_.push_back(b);
    return b;
  }
}

PlannedBatch ServePlanner::complete(bool ok, double end_to_end_us) {
  if (in_flight_.empty())
    throw std::logic_error("ServePlanner::complete: no batch in flight");
  PlannedBatch b = std::move(in_flight_.front());
  in_flight_.pop_front();
  const Tick held =
      ok ? std::max<Tick>(1, static_cast<Tick>(std::llround(end_to_end_us)))
         : admission_.est_batch_ticks();
  lane_free_ = std::max(lane_free_, b.form_tick) + held;
  ++priced_;
  for (const std::uint64_t id : b.request_ids) {
    RequestRecord& rec = records_[id];
    rec.outcome = ok ? Outcome::kCompleted : Outcome::kDegraded;
    rec.latency_ticks = ok ? lane_free_ - rec.arrival_tick : 0;
  }
  if (ok)
    completed_ += b.request_ids.size();
  else
    degraded_ += b.request_ids.size();
  return b;
}

void ServePlanner::finish() {
  if (queue_.stopped()) return;
  for (const Request& r : queue_.drain()) {
    records_[r.id].outcome = Outcome::kShedShutdown;
    ++shed_shutdown_;
  }
}

void ServePlanner::shutdown() noexcept {
  if (!queue_.started()) return;  // never started, or already stopped
  try {
    for (const Request& r : queue_.drain()) {
      records_[r.id].outcome = Outcome::kShedShutdown;
      ++shed_shutdown_;
    }
  } catch (...) {
    // drain() only throws on lifecycle misuse, excluded by the guard.
  }
  for (const PlannedBatch& b : in_flight_) {
    for (const std::uint64_t id : b.request_ids) {
      records_[id].outcome = Outcome::kShedShutdown;
      ++shed_shutdown_;
    }
  }
  in_flight_.clear();
}

ServeReport ServePlanner::report() {
  ServeReport rep;
  rep.arrived = arrived_;
  rep.admitted = admitted_;
  rep.shed_slo = shed_slo_;
  rep.shed_queue_full = shed_queue_full_;
  rep.completed = completed_;
  rep.degraded = degraded_;
  rep.batches = priced_;
  // Every rider of a priced batch completed or degraded.
  rep.mean_batch_fill =
      priced_ > 0 ? static_cast<double>(completed_ + degraded_) /
                        static_cast<double>(priced_ *
                                            config_.batch.max_batch_requests)
                  : 0.0;
  rep.records = std::move(records_);
  const Tick first_arrival =
      rep.records.empty() ? 0 : rep.records.front().arrival_tick;
  Tick last_event = lane_free_;
  if (!rep.records.empty())
    last_event = std::max(last_event, rep.records.back().arrival_tick);
  rep.span_ticks = last_event > first_arrival ? last_event - first_arrival : 0;
  std::vector<Tick> latencies;
  latencies.reserve(completed_);
  for (const RequestRecord& r : rep.records) {
    if (r.outcome != Outcome::kCompleted) continue;
    latencies.push_back(r.latency_ticks);
    if (config_.slo_ticks == 0 || r.latency_ticks <= config_.slo_ticks)
      ++rep.goodput_requests;
  }
  std::sort(latencies.begin(), latencies.end());
  rep.p50_latency_ticks = nearest_rank(latencies, 0.50);
  rep.p95_latency_ticks = nearest_rank(latencies, 0.95);
  rep.p99_latency_ticks = nearest_rank(latencies, 0.99);
  rep.goodput_rps = rep.span_ticks > 0
                        ? static_cast<double>(rep.goodput_requests) * 1e6 /
                              static_cast<double>(rep.span_ticks)
                        : 0.0;
  return rep;
}

}  // namespace gt::serving
