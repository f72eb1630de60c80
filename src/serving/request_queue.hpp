// Bounded request queue with an explicit component lifecycle.
//
// The lifecycle follows the bscheduler pipeline_base exemplar
// (SNIPPETS.md Snippet 1) without its transient starting and stopping
// states: the queue has nothing to spin up or wind down, so both
// transitions complete inside one call and a caller only ever sees
// initial -> started -> stopped. Transitions are validated (a queue
// cannot re-start after stopping, cannot accept work unless started),
// and teardown is observable — the serve loop's unwind guard calls
// drain() so an aborting run leaves the queue stopped and empty instead
// of holding requests nobody will ever serve.
//
// The queue itself is deliberately simple: a FIFO with a hard capacity.
// Overflow is the *caller's* signal to shed (push returns false rather
// than throwing or blocking — load shedding is a normal serving outcome,
// not an error), and ordering is arrival order, which admission control
// and the batcher both rely on for determinism.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "serving/types.hpp"

namespace gt::serving {

/// pipeline_base-style component states (SNIPPETS.md Snippet 1).
enum class Lifecycle : std::uint8_t {
  kInitial,
  kStarted,
  kStopped,
};

const char* to_string(Lifecycle s) noexcept;

class RequestQueue {
 public:
  /// capacity == 0 means "shed everything" (admission-only serving); the
  /// queue is still constructible so flag validation can happen upstream.
  explicit RequestQueue(std::size_t capacity) : capacity_(capacity) {}

  Lifecycle state() const noexcept { return state_; }
  bool started() const noexcept { return state_ == Lifecycle::kStarted; }
  bool stopped() const noexcept { return state_ == Lifecycle::kStopped; }

  /// initial -> started. Throws std::logic_error from any other state: a
  /// queue that already served cannot be restarted.
  void start();

  /// started -> stopped. Remaining requests are returned to the caller
  /// (they get their kShedShutdown outcome there); the queue ends empty.
  /// Idempotent once stopped; throws from initial.
  std::vector<Request> drain();

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return q_.size(); }
  bool empty() const noexcept { return q_.empty(); }
  bool full() const noexcept { return q_.size() >= capacity_; }
  /// Highest size() ever observed — the saturation gauge.
  std::size_t peak_size() const noexcept { return peak_; }

  /// Enqueue in arrival order. Returns false (caller sheds) when the
  /// queue is full. Throws std::logic_error unless started.
  bool push(const Request& r);

  /// Oldest queued request. Precondition: !empty().
  const Request& front() const { return q_.front(); }

  /// Dequeue the oldest request. Precondition: !empty().
  Request pop();

 private:
  std::size_t capacity_;
  std::deque<Request> q_;
  std::size_t peak_ = 0;
  Lifecycle state_ = Lifecycle::kInitial;
};

}  // namespace gt::serving
