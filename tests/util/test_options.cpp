#include "util/options.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace gt {
namespace {

/// The message parse_options throws, or "" when the arguments parse.
std::string error_of(const std::vector<Option>& table,
                     const std::vector<std::string>& args) {
  try {
    parse_options(table, args);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

enum class Color { kRed, kBlue };

Color parse_color(const std::string& name) {
  if (name == "red") return Color::kRed;
  if (name == "blue") return Color::kBlue;
  throw std::invalid_argument("unknown color '" + name + "'");
}

TEST(Options, BothValueFormsStrictNumbersAndRanges) {
  std::size_t workers = 1;
  std::string out;
  const std::vector<Option> table = {
      count("--workers", &workers, "worker count", 1, 256),
      text("--out", &out)};
  EXPECT_EQ(error_of(table, {"--workers=4", "--out", "a.json"}), "");
  EXPECT_EQ(workers, 4u);
  EXPECT_EQ(out, "a.json");
  EXPECT_EQ(error_of(table, {"--workers", "256", "--out=b=c"}), "");
  EXPECT_EQ(workers, 256u);
  EXPECT_EQ(out, "b=c");  // only the first '=' separates the value

  for (const char* bad : {"abc", "4x", "", " 4", "+4", "-3", "4.0", "0x10"}) {
    SCOPED_TRACE(bad);
    const std::string err =
        error_of(table, {std::string("--workers=") + bad});
    EXPECT_EQ(err, std::string("--workers=") + bad +
                       ": expected a whole number; worker count must be in "
                       "[1, 256]");
  }
  EXPECT_EQ(error_of(table, {"--workers=0"}),
            "--workers=0: worker count must be in [1, 256]");
  EXPECT_EQ(error_of(table, {"--workers", "257"}),
            "--workers=257: worker count must be in [1, 256]");
  EXPECT_EQ(error_of(table, {"--workers=18446744073709551616"}),
            "--workers=18446744073709551616: worker count must be in "
            "[1, 256]");

  std::uint32_t retries = 3;
  double rate = 1.0, threshold = 0.05;
  Color color = Color::kRed;
  const std::vector<Option> more = {
      count("--max-retries", &retries, "retry budget", 0),
      real("--rate", &rate, "arrival rate"),
      real("--threshold", &threshold, "fraction", /*allow_zero=*/true),
      named("--color", &color, parse_color)};
  EXPECT_EQ(error_of(more, {"--max-retries=4294967295", "--rate=2.5e3",
                            "--threshold=0", "--color=blue"}),
            "");
  EXPECT_EQ(retries, 4294967295u);
  EXPECT_DOUBLE_EQ(rate, 2500.0);
  EXPECT_DOUBLE_EQ(threshold, 0.0);
  EXPECT_EQ(color, Color::kBlue);
  EXPECT_EQ(error_of(more, {"--max-retries=4294967296"}),
            "--max-retries=4294967296: retry budget must be in "
            "[0, 4294967295]");
  for (const char* bad : {"0", "-1", "nan", "inf", "1e400", "2x"})
    EXPECT_EQ(error_of(more, {std::string("--rate=") + bad}),
              std::string("--rate=") + bad +
                  ": expected a positive arrival rate");
  EXPECT_EQ(error_of(more, {"--threshold=-0.1"}),
            "--threshold=-0.1: expected a non-negative fraction");
  EXPECT_EQ(error_of(more, {"--color=green"}),
            "--color=green: unknown color 'green'");
}

TEST(Options, RejectsUnknownFlagSurplusPositionalSwitchValueMissingValue) {
  std::string dataset, model;
  std::size_t batches = 8;
  bool serve = false;
  const std::vector<Option> table = {
      text("dataset", &dataset), text("model", &model),
      count("--batches", &batches, "batch count", 1, 1000),
      flag("--serve", &serve)};
  EXPECT_EQ(error_of(table, {"products", "--serve", "GCN"}), "");
  EXPECT_EQ(dataset, "products");
  EXPECT_EQ(model, "GCN");
  EXPECT_TRUE(serve);
  EXPECT_EQ(error_of(table, {"products", "GCN", "--wokers=4"}),
            "unknown flag --wokers");
  EXPECT_EQ(error_of(table, {"-h"}), "unknown flag -h");
  EXPECT_EQ(error_of(table, {"products", "GCN", "4"}),
            "unexpected argument '4'");
  EXPECT_EQ(error_of(table, {"--serve=1"}), "--serve takes no value");
  EXPECT_EQ(error_of(table, {"products", "--batches"}),
            "--batches needs a value");
}

TEST(Options, EnvironmentOnlyWhenTheFlagIsAbsent) {
  std::uint64_t interval = 1;
  std::string dir;
  const std::vector<Option> table = {
      count("--interval", &interval, "snapshot interval", 1)
          .env("GT_TEST_OPTIONS_INTERVAL"),
      text("--dir", &dir).env("GT_TEST_OPTIONS_DIR")};
  ASSERT_EQ(setenv("GT_TEST_OPTIONS_INTERVAL", "7", 1), 0);
  ASSERT_EQ(setenv("GT_TEST_OPTIONS_DIR", "", 1), 0);
  EXPECT_EQ(error_of(table, {}), "");
  EXPECT_EQ(interval, 7u);
  EXPECT_EQ(dir, "");  // an empty variable counts as unset

  interval = 1;
  EXPECT_EQ(error_of(table, {"--interval=3"}), "");
  EXPECT_EQ(interval, 3u);  // the flag wins; the variable is never read

  ASSERT_EQ(setenv("GT_TEST_OPTIONS_INTERVAL", "bogus", 1), 0);
  EXPECT_EQ(error_of(table, {"--interval", "2"}), "");
  EXPECT_EQ(interval, 2u);  // ...not even to reject it
  EXPECT_EQ(error_of(table, {}),
            "--interval=bogus (from GT_TEST_OPTIONS_INTERVAL): expected a "
            "whole number; snapshot interval must be >= 1");
  unsetenv("GT_TEST_OPTIONS_INTERVAL");
  unsetenv("GT_TEST_OPTIONS_DIR");
}

TEST(Options, RequirementsAreCheckedAfterAllFlagsInAnyOrder) {
  std::size_t budget = 0, devices = 1, shards = 1;
  bool prefetch = false;
  const auto cached = [&] { return budget > 0; };
  const auto table = [&] {
    budget = 0;
    devices = shards = 1;
    prefetch = false;
    return std::vector<Option>{
        bytes("--cache-budget", &budget),
        flag("--prefetch", &prefetch).needs("a positive --cache-budget",
                                            cached),
        count("--devices", &devices, "device count", 1, 64),
        count("--shards", &shards, "shard count", 1, 64)
            .needs("--devices > 1", [&] { return devices > 1; })};
  };
  EXPECT_EQ(error_of(table(), {"--prefetch", "--cache-budget=1M"}), "");
  EXPECT_TRUE(prefetch);
  EXPECT_EQ(error_of(table(), {"--cache-budget=1M", "--prefetch"}), "");
  EXPECT_EQ(error_of(table(), {"--prefetch"}),
            "--prefetch requires a positive --cache-budget");
  EXPECT_EQ(error_of(table(), {"--prefetch", "--cache-budget=0"}),
            "--prefetch requires a positive --cache-budget");
  // A requirement reads the final stored values, not the ones at the time
  // its own flag was seen.
  EXPECT_EQ(error_of(table(), {"--shards=2", "--devices=2"}), "");
  EXPECT_EQ(error_of(table(), {"--devices=2", "--shards=2", "--devices=1"}),
            "--shards=2 requires --devices > 1");
  // Absent flags carry no requirement.
  EXPECT_EQ(error_of(table(), {"--devices=1"}), "");
}

TEST(Options, ByteSizesTakeKMGSuffixes) {
  std::size_t budget = 0;
  const std::vector<Option> table = {bytes("--cache-budget", &budget)};
  const std::vector<std::pair<std::string, std::size_t>> good = {
      {"0", 0},        {"7", 7},          {"512k", 512 * 1024},
      {"8M", 8 << 20}, {"2MB", 2 << 20},  {"1G", std::size_t{1} << 30},
      {"1gb", std::size_t{1} << 30},      {"1.5K", 1536}};
  for (const auto& [text, want] : good) {
    SCOPED_TRACE(text);
    EXPECT_EQ(error_of(table, {"--cache-budget=" + text}), "");
    EXPECT_EQ(budget, want);
  }
  for (const char* bad : {"", "M", "8X", "8MBB", "8 M", "-1", "-1K", "inf",
                          "nan", "1e400", "17179869184G"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(error_of(table, {std::string("--cache-budget=") + bad}),
              std::string("--cache-budget=") + bad +
                  ": expected a byte count with an optional K/M/G suffix "
                  "(e.g. 8M)");
  }
}

TEST(Options, FlagWinsOverAPositionalSharingItsDestination) {
  std::size_t batches = 8;
  const std::vector<Option> table = {
      count("batches", &batches, "batch count", 1, 1000),
      count("--batches", &batches, "batch count", 1, 1000)};
  EXPECT_EQ(error_of(table, {"--batches=3", "5"}), "");
  EXPECT_EQ(batches, 3u);
  EXPECT_EQ(error_of(table, {"5"}), "");
  EXPECT_EQ(batches, 5u);
  EXPECT_EQ(error_of(table, {"abc"}),
            "batches 'abc': expected a whole number; batch count must be in "
            "[1, 1000]");
}

// Seeded mutation fuzzing of a service_cli-shaped table: whatever the argv,
// parsing either throws std::invalid_argument or leaves every destination
// inside its declared range with every requirement met.
TEST(Options, SurvivesMutatedArgv) {
  struct Dest {
    std::string dataset, model, framework, trace;
    std::size_t batches = 8, workers = 1, devices = 1, budget = 0;
    std::size_t queue = 64;
    std::uint32_t verts = 32;
    std::uint64_t interval = 1;
    double rate = 1000.0;
    Color color = Color::kRed;
    bool serve = false, prefetch = false;
  };
  Dest d;
  const auto serving = [&] { return d.serve; };
  const std::vector<Option> table = {
      text("dataset", &d.dataset),
      text("model", &d.model),
      text("framework", &d.framework),
      count("batches", &d.batches, "batch count", 1, 1'000'000),
      count("--batches", &d.batches, "batch count", 1, 1'000'000),
      count("--workers", &d.workers, "worker count", 1, 256),
      count("--devices", &d.devices, "device count", 1, 64),
      named("--shard", &d.color, parse_color)
          .needs("--devices > 1", [&] { return d.devices > 1; }),
      bytes("--cache-budget", &d.budget),
      flag("--prefetch", &d.prefetch)
          .needs("a positive --cache-budget", [&] { return d.budget > 0; }),
      text("--trace-out", &d.trace),
      count("--telemetry-interval", &d.interval, "snapshot interval", 1)
          .env("GT_TEST_OPTIONS_UNSET"),
      flag("--serve", &d.serve),
      real("--rate", &d.rate, "arrival rate").needs("--serve", serving),
      count("--queue-depth", &d.queue, "capacity", 1).needs("--serve",
                                                            serving),
      count("--verts-per-request", &d.verts, "vertex count", 1, 0xffff)
          .needs("--serve", serving)};
  const std::vector<std::vector<std::string>> seeds = {
      {"products", "GCN", "Prepro-GT", "4", "--workers=4"},
      {"social", "GCN", "Prepro-GT", "--batches", "3", "--cache-budget=2M",
       "--prefetch"},
      {"products", "--devices=2", "--shard=blue", "--trace-out", "t.json"},
      {"--serve", "--rate=2000", "--queue-depth", "8",
       "--verts-per-request=16", "--telemetry-interval=2"}};
  const std::vector<std::string> tokens = {
      "",   "=",   "-",    "--",  "abc", "-1",  "0",   "1",    "256",
      "257", "1e3", "nan", "inf", "8M",  "1.5G", "18446744073709551616",
      "--workers", "--serve", "--prefetch=1", "--rate", "--shard", "red",
      "--batches=", "--cache-budget", "--devices=65", "--queue-depth=0"};
  Xoshiro256 rng(20240917);
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::string> args = seeds[rng.uniform(seeds.size())];
    const std::uint64_t mutations = 1 + rng.uniform(3);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      const std::size_t at = args.empty() ? 0 : rng.uniform(args.size());
      switch (rng.uniform(6)) {
        case 0:  // overwrite one byte (any value, including NUL)
          if (!args.empty() && !args[at].empty())
            args[at][rng.uniform(args[at].size())] =
                static_cast<char>(rng.uniform(256));
          break;
        case 1:  // delete one byte
          if (!args.empty() && !args[at].empty())
            args[at].erase(rng.uniform(args[at].size()), 1);
          break;
        case 2:  // drop an argument
          if (!args.empty()) args.erase(args.begin() + at);
          break;
        case 3:  // duplicate an argument
          if (!args.empty()) args.insert(args.begin() + at, args[at]);
          break;
        case 4:  // insert a hostile token
          args.insert(args.begin() + (args.empty() ? 0 : at),
                      tokens[rng.uniform(tokens.size())]);
          break;
        default:  // split "--flag=value" into "--flag" "value"
          if (!args.empty()) {
            const std::size_t eq = args[at].find('=');
            if (eq != std::string::npos) {
              const std::string value = args[at].substr(eq + 1);
              args[at].resize(eq);
              args.insert(args.begin() + at + 1, value);
            }
          }
      }
    }
    d = Dest{};
    try {
      parse_options(table, args);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++accepted;
    EXPECT_GE(d.batches, 1u);
    EXPECT_LE(d.batches, 1'000'000u);
    EXPECT_GE(d.workers, 1u);
    EXPECT_LE(d.workers, 256u);
    EXPECT_GE(d.devices, 1u);
    EXPECT_LE(d.devices, 64u);
    EXPECT_GE(d.interval, 1u);
    EXPECT_GE(d.queue, 1u);
    EXPECT_GE(d.verts, 1u);
    EXPECT_LE(d.verts, 0xffffu);
    EXPECT_TRUE(std::isfinite(d.rate) && d.rate > 0.0);
    // Requirements held on every accepted argv.
    EXPECT_TRUE(!d.prefetch || d.budget > 0);
    EXPECT_TRUE(d.serve || (d.rate == 1000.0 && d.queue == 64 &&
                            d.verts == 32));
    EXPECT_TRUE(d.color == Color::kRed || d.devices > 1);
  }
  // The mutations must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace gt
