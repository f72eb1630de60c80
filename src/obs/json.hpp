// The obs layer's one JSON encoder and one JSON parser.
//
// JsonWriter writes every obs artifact: the Chrome trace, the metrics
// dump, telemetry snapshots, event-log lines, bench reports, kernels.json
// and the two tools' --json output. It owns escaping, number formatting,
// separators and indentation, so an artifact's code states only its
// structure, and a non-finite number prints as null, so every artifact
// parses.
//
// The parser is a minimal RFC 8259 value tree plus recursive descent: the
// tools read the repo's own reports back (bench_diff, gt_explain, gt_top).
// It accepts exactly the JSON grammar and nothing else; it exists so the
// repo keeps its zero-external-dependency rule. Documents are small (bench
// reports are a few KiB), so the tree is a plain recursive variant with no
// arena tricks.
#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
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

  /// Member `key` as a double: a number reads as its value, and a null or
  /// missing member as 0 (the writers print a non-finite number as null).
  /// Empty when the member holds any other type, so a loader refuses a
  /// string or an array where a number belongs instead of reading it as 0.
  std::optional<double> double_at(std::string_view key) const noexcept {
    const JsonValue& v = at(key);
    if (v.is_number()) return v.num_;
    if (v.is_null()) return 0.0;
    return std::nullopt;
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

/// Streaming JSON encoder. Callers state the structure; the writer emits
/// the bytes:
///
///   JsonWriter w;
///   w.object().member("schema_version", 1).key("rows").array();
///   for (const Row& r : rows)
///     w.object(JsonWriter::kInline).member("x", r.x).end();
///   w.end().end().flush(os);
///
/// Two styles. kPretty: each member of a block container sits on its own
/// line, indented two spaces per level, as `"key": value`; an inline
/// container (and everything opened inside it) stays on one line with
/// `, ` between members; an empty container prints `{}` or `[]`; a
/// finished document ends with a newline. kCompact: one line with no
/// whitespace, for event-log lines and span-arg / event-field fragments.
///
/// Integers print exactly, doubles as %.<digits>g (6 unless the
/// constructor says otherwise), and a NaN or infinity as null. Misuse —
/// end() with nothing open, key() outside an object, a value where a key
/// is due, a second top-level value — is a programming error and asserts.
class JsonWriter {
 public:
  enum Style { kPretty, kCompact };
  enum Layout { kBlock, kInline };

  explicit JsonWriter(Style style = kPretty, int digits = 6);

  /// A compact writer that continues `fragment`, a brace-less member list
  /// such as `"k":1,"s":"v"` (or empty): the next key() appends one more
  /// member, and take() returns the longer list.
  static JsonWriter members(std::string fragment = {});

  JsonWriter& object(Layout layout = kBlock);
  JsonWriter& array(Layout layout = kBlock);
  /// Close the innermost open object or array.
  JsonWriter& end();

  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& value(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
    return raw(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }
  template <typename T>
  JsonWriter& member(std::string_view k, const T& v) {
    return key(k).value(v);
  }
  /// `v` with exactly `decimals` digits after the point (%.<decimals>f):
  /// the trace's and the event log's microsecond/millisecond stamps.
  JsonWriter& fixed(double v, int decimals);
  /// Splice an already-rendered JSON value.
  JsonWriter& raw(std::string_view rendered);

  /// Move the text rendered so far to `os`. The writer keeps its place in
  /// the document, so a large one never sits in memory whole.
  JsonWriter& flush(std::ostream& os);
  /// The rendered text: a finished document, or a members() fragment.
  std::string take();

 private:
  static constexpr int kMaxDepth = 32;
  struct Frame {
    bool object = false;
    bool inline_ = false;
  };

  JsonWriter& open(bool object, Layout layout);
  void begin_value();  // the separator or key check a value needs first
  void separate();     // the separator before a member or element
  void end_value();    // a value is complete: close the document at depth 0

  std::string out_;
  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  bool empty_ = true;      // the innermost container has no member yet
  bool after_key_ = false; // a key awaits its value
  bool done_ = false;      // the top-level value is complete
  bool fragment_ = false;  // stack_[0] is a brace-less members() list
  Style style_;
  int digits_;
};

}  // namespace gt::obs
