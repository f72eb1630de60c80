// In-memory span recorder for the traced run. Each span has a name, a
// steady_clock start and end, and the span that was open when it began;
// nothing is written until the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string_view name;  // always a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };

  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string_view name)
        : rec_(rec), id_(rec.open(name)) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    std::int32_t id_;
  };

  /// RAII span; `name` must have static storage duration.
  Scope scope(std::string_view name) { return Scope(*this, name); }

  /// Drop every finished span (warm-up batches are not measured).
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Per span name: summed duration, and summed self time (duration minus
  /// the part covered by direct children), in nanoseconds.
  struct Totals {
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[std::string(spans_[i].name)];
      const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      t.total_ns += static_cast<double>(dur);
      t.self_ns += static_cast<double>(dur - child_ns[i]);
      ++t.count;
    }
    return out;
  }

  /// Summed duration of the direct children of every `parent`-named span,
  /// by child name: the split of an envelope.
  std::map<std::string, double> children_ns(std::string_view parent) const {
    std::map<std::string, double> out;
    for (const Span& s : spans_)
      if (s.parent >= 0 && spans_[s.parent].name == parent)
        out[std::string(s.name)] += static_cast<double>(s.end_ns - s.start_ns);
    return out;
  }

  bool write_json(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i ? "," : "") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  std::int32_t open(std::string_view name) {
    const std::int32_t id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, 0, 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    spans_.back().start_ns = now_ns();
    return id;
  }
  void close(std::int32_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

}  // namespace perfbench
