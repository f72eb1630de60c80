#include "serving/planner.hpp"

#include <stdexcept>
#include <string>

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
    // Placeholder until the planner (shed) or the serve loop's pricing
    // (completed/degraded) decides it; an unwound run leaves it as-is.
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
    return b;
  }
}

void ServePlanner::finish() {
  if (queue_.stopped()) return;
  for (const Request& r : queue_.drain()) {
    records_[r.id].outcome = Outcome::kShedShutdown;
    ++shed_shutdown_;
  }
}

void ServePlanner::shutdown(std::span<const PlannedBatch> unserved) noexcept {
  if (!queue_.started()) return;  // initial/starting never held requests
  for (const PlannedBatch& b : unserved) {
    for (const std::uint64_t id : b.request_ids) {
      records_[id].outcome = Outcome::kShedShutdown;
      ++shed_shutdown_;
    }
  }
  try {
    for (const Request& r : queue_.drain()) {
      records_[r.id].outcome = Outcome::kShedShutdown;
      ++shed_shutdown_;
    }
  } catch (...) {
    // drain() only throws on lifecycle misuse, excluded by the guard.
  }
}

}  // namespace gt::serving
