#include "serving/request_queue.hpp"

#include <stdexcept>

namespace gt::serving {

const char* to_string(Lifecycle s) noexcept {
  switch (s) {
    case Lifecycle::kInitial: return "initial";
    case Lifecycle::kStarted: return "started";
    case Lifecycle::kStopped: return "stopped";
  }
  return "?";
}

void RequestQueue::start() {
  if (state_ != Lifecycle::kInitial)
    throw std::logic_error(std::string("RequestQueue::start from state ") +
                           to_string(state_));
  state_ = Lifecycle::kStarted;
}

std::vector<Request> RequestQueue::drain() {
  if (state_ == Lifecycle::kStopped) return {};
  if (state_ != Lifecycle::kStarted)
    throw std::logic_error(std::string("RequestQueue::drain from state ") +
                           to_string(state_));
  std::vector<Request> remaining(q_.begin(), q_.end());
  q_.clear();
  state_ = Lifecycle::kStopped;
  return remaining;
}

bool RequestQueue::push(const Request& r) {
  if (state_ != Lifecycle::kStarted)
    throw std::logic_error(std::string("RequestQueue::push from state ") +
                           to_string(state_));
  if (q_.size() >= capacity_) return false;
  q_.push_back(r);
  if (q_.size() > peak_) peak_ = q_.size();
  return true;
}

Request RequestQueue::pop() {
  Request r = q_.front();
  q_.pop_front();
  return r;
}

}  // namespace gt::serving
