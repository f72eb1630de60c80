#include "util/options.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace gt {

namespace {

bool is_flag(const std::string& arg) {
  return arg.size() > 1 && arg[0] == '-';
}

/// One value headed for an entry, with where it came from for messages.
struct Given {
  const Option* opt;
  std::string value;
  std::string origin;
};

void apply(const Given& g) {
  try {
    g.opt->store(g.value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(g.origin + ": " + e.what());
  }
}

std::string range_text(std::uint64_t min, std::uint64_t max) {
  if (max == std::numeric_limits<std::uint64_t>::max())
    return ">= " + std::to_string(min);
  return "in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
}

}  // namespace

namespace detail {

std::uint64_t parse_count(const std::string& text, const std::string& what,
                          std::uint64_t min, std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  const std::string range = what + " must be " + range_text(min, max);
  if (ec == std::errc::invalid_argument || ptr != end)
    throw std::invalid_argument("expected a whole number; " + range);
  if (ec == std::errc::result_out_of_range || v < min || v > max)
    throw std::invalid_argument(range);
  return v;
}

}  // namespace detail

void parse_options(const std::vector<Option>& table,
                   const std::vector<std::string>& args) {
  std::vector<const Option*> slots;
  for (const Option& o : table)
    if (!is_flag(o.name)) slots.push_back(&o);
  std::vector<Given> positionals, flags;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!is_flag(arg)) {
      if (positionals.size() == slots.size())
        throw std::invalid_argument("unexpected argument '" + arg + "'");
      const Option* slot = slots[positionals.size()];
      positionals.push_back({slot, arg, slot->name + " '" + arg + "'"});
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Option* opt = nullptr;
    for (const Option& o : table)
      if (o.name == name) opt = &o;
    if (opt == nullptr) throw std::invalid_argument("unknown flag " + name);
    if (!opt->takes_value) {
      if (eq != std::string::npos)
        throw std::invalid_argument(name + " takes no value");
      flags.push_back({opt, "", name});
    } else if (eq != std::string::npos) {
      flags.push_back({opt, arg.substr(eq + 1), arg});
    } else if (i + 1 < args.size()) {
      ++i;
      flags.push_back({opt, args[i], name + "=" + args[i]});
    } else {
      throw std::invalid_argument(name + " needs a value");
    }
  }
  std::vector<Given> set = std::move(positionals);
  set.insert(set.end(), flags.begin(), flags.end());
  for (const Option& o : table) {
    if (o.env_var.empty()) continue;
    bool given = false;
    for (const Given& g : flags) given = given || g.opt == &o;
    const char* env = std::getenv(o.env_var.c_str());
    if (given || env == nullptr || *env == '\0') continue;
    set.push_back({&o, env,
                   o.name + "=" + env + " (from " + o.env_var + ")"});
  }
  for (const Given& g : set) apply(g);
  for (const Given& g : set)
    if (g.opt->need_met && !g.opt->need_met())
      throw std::invalid_argument(g.origin + " requires " + g.opt->need);
}

Option flag(std::string name, bool* out) {
  return Option(
      std::move(name), [out](const std::string&) { *out = true; },
      /*takes_value=*/false);
}

Option real(std::string name, double* out, std::string what,
            bool allow_zero) {
  return Option(std::move(name), [out, what = std::move(what),
                                   allow_zero](const std::string& text) {
    double v = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0.0 ||
        (v == 0.0 && !allow_zero))
      throw std::invalid_argument(std::string("expected a ") +
                                  (allow_zero ? "non-negative " : "positive ") +
                                  what);
    *out = v;
  });
}

Option bytes(std::string name, std::size_t* out) {
  return Option(std::move(name), [out](const std::string& text) {
    double v = 0.0;
    const char* end = text.data() + text.size();
    auto [p, ec] = std::from_chars(text.data(), end, v);
    int shift = 0;
    if (ec == std::errc() && p != end) {
      const int unit = std::tolower(static_cast<unsigned char>(*p));
      shift = unit == 'k' ? 10 : unit == 'm' ? 20 : unit == 'g' ? 30 : 0;
      if (shift > 0 && ++p != end && (*p == 'B' || *p == 'b')) ++p;
    }
    const double scaled = std::ldexp(v, shift);
    // 2^digits is the first value a std::size_t cannot hold.
    if (ec != std::errc() || p != end || !(scaled >= 0.0) ||
        !(scaled < std::ldexp(1.0, std::numeric_limits<std::size_t>::digits)))
      throw std::invalid_argument(
          "expected a byte count with an optional K/M/G suffix (e.g. 8M)");
    *out = static_cast<std::size_t>(scaled);
  });
}

Option text(std::string name, std::string* out) {
  return Option(std::move(name),
                [out](const std::string& text) { *out = text; });
}

}  // namespace gt
