// Table-driven command-line options, shared by service_cli and the tools
// (bench_diff, gt_top, gt_explain, fault_harness).
//
// A program declares one table. Each entry names a flag ("--workers") or a
// positional slot ("dataset", filled in table order), says how its value
// parses — a switch, a whole number in a range, a real, a byte size with a
// K/M/G suffix, free text, or a name resolved by one of the library's
// parse_* functions — and where the value lands. An entry may also name an
// environment variable, read only when the flag is absent, and a
// requirement on other flags, checked once every value is stored.
//
// parse_options() accepts `--name=value` and `--name value`. Numbers must
// parse whole (std::from_chars: no sign, no trailing text, no overflow).
// Positionals are stored first, then flags in command-line order, then the
// environment fallbacks of absent flags, so a flag wins over a positional
// or variable that shares its destination. An unknown flag, a surplus
// positional, a bad value, a value on a switch, a missing value or an
// unmet requirement throws std::invalid_argument with one message naming
// the flag; the programs print it and exit 2.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace gt {

/// One table entry; built by the factories below (flag, count, real,
/// bytes, text, named) and refined with env() / needs().
struct Option {
  Option(std::string name, std::function<void(const std::string&)> store,
         bool takes_value = true)
      : name(std::move(name)),
        takes_value(takes_value),
        store(std::move(store)) {}

  /// "--flag", or a positional slot's name (no leading dash).
  std::string name;
  /// False for a switch, which rejects `--switch=value`.
  bool takes_value;
  /// Parses one value into the destination (a switch gets ""). Throws
  /// std::invalid_argument with the reason; parse_options prefixes where
  /// the value came from.
  std::function<void(const std::string&)> store;
  /// Read only when the flag is absent; an empty value counts as unset.
  std::string env_var;
  /// Checked after every value is stored, for entries that were set:
  /// when `need_met()` is false the message is "<flag> requires <need>".
  std::string need;
  std::function<bool()> need_met;

  Option env(std::string var) && {
    env_var = std::move(var);
    return std::move(*this);
  }
  Option needs(std::string what, std::function<bool()> met) && {
    need = std::move(what);
    need_met = std::move(met);
    return std::move(*this);
  }
};

/// Parses `args` (argv without the program name) against `table`.
void parse_options(const std::vector<Option>& table,
                   const std::vector<std::string>& args);

namespace detail {
std::uint64_t parse_count(const std::string& text, const std::string& what,
                          std::uint64_t min, std::uint64_t max);
}  // namespace detail

/// A switch: present = true.
Option flag(std::string name, bool* out);

/// A whole number in [min, max]; `what` names it in the message
/// ("capacity must be >= 1").
template <typename T>
Option count(std::string name, T* out, std::string what, std::uint64_t min,
             std::uint64_t max = std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T>);
  return Option(std::move(name), [out, what = std::move(what), min,
                                   max](const std::string& text) {
    *out = static_cast<T>(detail::parse_count(text, what, min, max));
  });
}

/// A finite real > 0, or >= 0 with `allow_zero`; `what` names it in the
/// message ("expected a positive arrival rate ...").
Option real(std::string name, double* out, std::string what,
            bool allow_zero = false);

/// A byte count with an optional K/M/G suffix and optional trailing B
/// ("8M", "512k", "1.5GB").
Option bytes(std::string name, std::size_t* out);

/// Free text, stored as given (an empty value is allowed).
Option text(std::string name, std::string* out);

/// A name resolved by `parse`, which throws std::invalid_argument for an
/// unknown name (parse_shard_strategy, parse_cache_policy, ...).
template <typename E>
Option named(std::string name, E* out, E (*parse)(const std::string&)) {
  return Option(std::move(name), [out, parse](const std::string& text) {
    *out = parse(text);
  });
}

}  // namespace gt
