// Minimal RFC 8259 JSON value tree + recursive-descent parser.
//
// The obs layer emits JSON (Chrome traces, metrics dumps, bench reports)
// and — since the bench_diff regression gate — must also read its own
// reports back. This parser accepts exactly the JSON grammar and nothing
// else; it exists so the repo keeps its zero-external-dependency rule.
// Documents are small (bench reports are a few KiB), so the tree is a
// plain recursive variant with no arena tricks.
#pragma once

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gt::obs {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// std::map keeps object members sorted, mirroring the writers: re-emitting
/// a parsed document is byte-stable w.r.t. key order.
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double n) : kind_(Kind::kNumber), num_(n) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  JsonValue(JsonArray a)
      : kind_(Kind::kArray), arr_(std::make_shared<JsonArray>(std::move(a))) {}
  JsonValue(JsonObject o)
      : kind_(Kind::kObject),
        obj_(std::make_shared<JsonObject>(std::move(o))) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool(bool fallback = false) const noexcept {
    return kind_ == Kind::kBool ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const noexcept {
    return kind_ == Kind::kNumber ? num_ : fallback;
  }
  const std::string& as_string() const noexcept {
    static const std::string empty;
    return kind_ == Kind::kString ? str_ : empty;
  }
  const JsonArray& as_array() const noexcept {
    static const JsonArray empty;
    return kind_ == Kind::kArray && arr_ ? *arr_ : empty;
  }
  const JsonObject& as_object() const noexcept {
    static const JsonObject empty;
    return kind_ == Kind::kObject && obj_ ? *obj_ : empty;
  }

  /// Object member lookup; returns a null value for missing keys or
  /// non-objects, so chained lookups never dereference invalid state.
  const JsonValue& at(std::string_view key) const noexcept;

  /// `at(key).as_number(fallback)` — the common report-reading idiom.
  double number_at(std::string_view key, double fallback = 0.0)
      const noexcept {
    return at(key).as_number(fallback);
  }
  const std::string& string_at(std::string_view key) const noexcept {
    return at(key).as_string();
  }

  /// Member `key` as an exact integer in [lo, hi]; empty when the member
  /// is missing, not a number, has a fraction or lies out of range. Use it
  /// instead of casting number_at(): casting an out-of-range double to an
  /// integer is undefined behaviour.
  template <typename Int>
  std::optional<Int> int_at(std::string_view key,
                            Int lo = std::numeric_limits<Int>::min(),
                            Int hi = std::numeric_limits<Int>::max())
      const noexcept {
    const JsonValue& v = at(key);
    // hi + 1.0 is exact below 2^53 and rounds to the next power of two
    // for the 64-bit maxima, so with the fraction check this admits hi
    // and nothing above it.
    if (!v.is_number() || !(v.num_ >= static_cast<double>(lo)) ||
        !(v.num_ < static_cast<double>(hi) + 1.0) ||
        std::trunc(v.num_) != v.num_)
      return std::nullopt;
    return static_cast<Int>(v.num_);
  }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // shared_ptr keeps JsonValue copyable while the element type is still
  // incomplete at declaration point.
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

/// Deepest array/object nesting json_parse accepts. The writers nest fewer
/// than 10 levels; the cap keeps a hostile document from exhausting the
/// parser's stack.
inline constexpr int kJsonMaxDepth = 512;

/// Parse one complete JSON document. On failure returns null and, when
/// `error` is non-null, stores a byte offset + message description.
bool json_parse(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

/// Convenience: parse or return a null value (errors discarded).
JsonValue json_parse_or_null(std::string_view text);

/// Read and parse a whole file; false on IO or parse failure.
bool json_parse_file(const std::string& path, JsonValue* out,
                     std::string* error = nullptr);

}  // namespace gt::obs
