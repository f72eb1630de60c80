#include "obs/json.hpp"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace gt::obs {

const JsonValue& JsonValue::at(std::string_view key) const noexcept {
  static const JsonValue null_value;
  if (kind_ != Kind::kObject || !obj_) return null_value;
  const auto it = obj_->find(key);
  return it == obj_->end() ? null_value : it->second;
}

namespace {

class Parser {
 public:
  Parser(std::string_view s, std::string* error) : s_(s), error_(error) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  bool fail(const char* what) {
    if (error_ != nullptr) {
      std::ostringstream os;
      os << "JSON parse error at byte " << pos_ << ": " << what;
      *error_ = os.str();
    }
    return false;
  }

  bool value(JsonValue* out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{':
      case '[': {
        static_assert(kJsonMaxDepth == 512, "the message names the cap");
        if (depth_ == kJsonMaxDepth) return fail("nesting deeper than 512");
        ++depth_;
        const bool ok = s_[pos_] == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"': {
        std::string s;
        if (!string(&s)) return false;
        *out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        *out = JsonValue(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        *out = JsonValue(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        *out = JsonValue();
        return true;
      default: return number(out);
    }
  }

  bool object(JsonValue* out) {
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (consume('}')) {
      *out = JsonValue(std::move(obj));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return fail("expected object key string");
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      skip_ws();
      JsonValue v;
      if (!value(&v)) return false;
      obj.insert_or_assign(std::move(key), std::move(v));
      skip_ws();
      if (consume('}')) {
        *out = JsonValue(std::move(obj));
        return true;
      }
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue* out) {
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (consume(']')) {
      *out = JsonValue(std::move(arr));
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!value(&v)) return false;
      arr.push_back(std::move(v));
      skip_ws();
      if (consume(']')) {
        *out = JsonValue(std::move(arr));
        return true;
      }
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool string(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size()) return fail("truncated \\u escape");
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("invalid hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point; surrogate pairs are not
          // recombined (the writers only escape control characters).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    consume('-');
    if (!digits()) return fail("invalid number");
    if (consume('.') && !digits()) return fail("digits required after '.'");
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return fail("digits required in exponent");
    }
    const std::string text(s_.substr(start, pos_ - start));
    *out = JsonValue(std::strtod(text.c_str(), nullptr));
    return true;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return fail("invalid literal");
    pos_ += lit.size();
    return true;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  std::string_view s_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_
};

}  // namespace

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  Parser p(text, error);
  if (p.parse(out)) return true;
  *out = JsonValue();
  return false;
}

JsonValue json_parse_or_null(std::string_view text) {
  JsonValue v;
  json_parse(text, &v);
  return v;
}

bool json_parse_file(const std::string& path, JsonValue* out,
                     std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + path;
    *out = JsonValue();
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return json_parse(buf.str(), out, error);
}

// ---- JsonWriter -------------------------------------------------------------

namespace {

/// Append `s` to `out` as the inside of a JSON string literal.
void json_escape(std::string_view s, std::string& out) {
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

JsonWriter::JsonWriter(Style style, int digits)
    : style_(style), digits_(digits) {
  assert(digits >= 1 && digits <= 17 && "significant digits of a double");
}

JsonWriter JsonWriter::members(std::string fragment) {
  JsonWriter w(kCompact);
  w.out_ = std::move(fragment);
  w.stack_[0] = Frame{true, true};
  w.depth_ = 1;
  w.empty_ = w.out_.empty();
  w.fragment_ = true;
  return w;
}

void JsonWriter::separate() {
  if (!empty_) out_ += ',';
  if (style_ == kPretty) {
    if (!stack_[depth_ - 1].inline_) {
      out_ += '\n';
      out_.append(2 * static_cast<std::size_t>(depth_), ' ');
    } else if (!empty_) {
      out_ += ' ';
    }
  }
  empty_ = false;
}

void JsonWriter::begin_value() {
  if (depth_ == 0) {
    assert(!done_ && "a document holds one top-level value");
    return;
  }
  if (stack_[depth_ - 1].object) {
    assert(after_key_ && "an object member needs a key first");
    after_key_ = false;
    return;
  }
  separate();
}

void JsonWriter::end_value() {
  if (depth_ > 0) return;
  done_ = true;
  if (style_ == kPretty) out_ += '\n';
}

JsonWriter& JsonWriter::open(bool object, Layout layout) {
  begin_value();
  assert(depth_ < kMaxDepth && "JsonWriter nesting too deep");
  const bool in_inline = depth_ > 0 && stack_[depth_ - 1].inline_;
  stack_[depth_++] = Frame{object, layout == kInline || in_inline};
  empty_ = true;
  out_ += object ? '{' : '[';
  return *this;
}

JsonWriter& JsonWriter::object(Layout layout) { return open(true, layout); }

JsonWriter& JsonWriter::array(Layout layout) { return open(false, layout); }

JsonWriter& JsonWriter::end() {
  assert(depth_ > 0 && !(fragment_ && depth_ == 1) &&
         "end() with no container open");
  assert(!after_key_ && "a key has no value");
  const Frame f = stack_[--depth_];
  if (style_ == kPretty && !f.inline_ && !empty_) {
    out_ += '\n';
    out_.append(2 * static_cast<std::size_t>(depth_), ' ');
  }
  out_ += f.object ? '}' : ']';
  empty_ = false;  // the closed container is a member of its parent
  end_value();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  assert(depth_ > 0 && stack_[depth_ - 1].object && "key() outside an object");
  assert(!after_key_ && "two keys in a row");
  separate();
  out_ += '"';
  json_escape(k, out_);
  out_ += style_ == kPretty ? "\": " : "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  begin_value();
  out_ += '"';
  json_escape(s, out_);
  out_ += '"';
  end_value();
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return raw("null");
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.*g", digits_, v);
  return raw(std::string_view(buf, static_cast<std::size_t>(n)));
}

JsonWriter& JsonWriter::fixed(double v, int decimals) {
  if (!std::isfinite(v)) return raw("null");
  assert(decimals >= 0 && decimals <= 9);
  char buf[328];  // the 309 integer digits of DBL_MAX fit
  const int n = std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return raw(std::string_view(buf, static_cast<std::size_t>(n)));
}

JsonWriter& JsonWriter::raw(std::string_view rendered) {
  begin_value();
  out_ += rendered;
  end_value();
  return *this;
}

JsonWriter& JsonWriter::flush(std::ostream& os) {
  os.write(out_.data(), static_cast<std::streamsize>(out_.size()));
  out_.clear();
  return *this;
}

std::string JsonWriter::take() {
  assert(!after_key_ && (fragment_ ? depth_ == 1 : done_) &&
         "take() of an unfinished document");
  return std::move(out_);
}

}  // namespace gt::obs
