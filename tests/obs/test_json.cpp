// obs::JsonWriter, the one encoder behind every obs artifact: its layout,
// pinned byte for byte, and null for every non-finite number each artifact
// writer is handed.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "obs/attrib/kernel_ledger.hpp"
#include "obs/live/event_log.hpp"
#include "obs/live/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace gt::obs {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

JsonValue parsed(const std::string& text) {
  JsonValue doc;
  std::string err;
  EXPECT_TRUE(json_parse(text, &doc, &err)) << err << "\n" << text;
  return doc;
}

TEST(JsonWriter, PrettyBlockInlineAndEmptyContainers) {
  JsonWriter w;
  w.object().member("name", "x").member("n", 3);
  w.key("inline").object(JsonWriter::kInline).member("a", 1);
  w.key("b").array().value(true).value(false).end().end();
  w.key("rows").array();
  w.object(JsonWriter::kInline).member("k", "v").end();
  w.object(JsonWriter::kInline).end();
  w.end().key("empty_object").object().end();
  w.key("empty_array").array().end();
  w.key("nested").object().key("deep").object().member("z", 0);
  w.end().end().end();
  EXPECT_EQ(w.take(), R"({
  "name": "x",
  "n": 3,
  "inline": {"a": 1, "b": [true, false]},
  "rows": [
    {"k": "v"},
    {}
  ],
  "empty_object": {},
  "empty_array": [],
  "nested": {
    "deep": {
      "z": 0
    }
  }
}
)");
}

TEST(JsonWriter, CompactStyleIsOneLineWithoutWhitespace) {
  JsonWriter w(JsonWriter::kCompact);
  w.object().member("a", 1).key("b").array().value("x").object().end().end();
  w.key("c").object(JsonWriter::kInline).member("d", false).end().end();
  EXPECT_EQ(w.take(), R"({"a":1,"b":["x",{}],"c":{"d":false}})");
}

TEST(JsonWriter, MembersContinuesABracelessList) {
  std::string frag = JsonWriter::members().member("n", 42).take();
  EXPECT_EQ(frag, R"("n":42)");
  frag = JsonWriter::members(std::move(frag)).member("s", "v").take();
  frag = JsonWriter::members(std::move(frag))
             .key("o")
             .object()
             .member("x", 1.5)
             .end()
             .take();
  EXPECT_EQ(frag, R"("n":42,"s":"v","o":{"x":1.5})");

  // A finished fragment splices into a document as an object's members.
  JsonWriter w;
  w.object().key("args").raw("{" + frag + "}").end();
  const JsonValue doc = parsed(w.take());
  EXPECT_EQ(doc.at("args").number_at("n"), 42.0);
  EXPECT_EQ(doc.at("args").at("o").number_at("x"), 1.5);
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  const std::string nasty =
      std::string("q\"b\\n\nt\tr\r") + '\x01' + '\x1f' + "\xc3\xa9";
  JsonWriter w(JsonWriter::kCompact);
  w.object().member(nasty, nasty).end();
  const std::string out = w.take();
  EXPECT_EQ(out, R"({"q\"b\\n\nt\tr\r\u0001\u001f)"
                 "\xc3\xa9"
                 R"(":"q\"b\\n\nt\tr\r\u0001\u001f)"
                 "\xc3\xa9"
                 R"("})");
  EXPECT_EQ(parsed(out).string_at(nasty), nasty);
}

TEST(JsonWriter, SignificantDigitsIntegersAndFixedDecimals) {
  JsonWriter six(JsonWriter::kCompact);
  six.array().value(1.0 / 3.0).value(448607.7254).value(1e-7).value(25.0);
  six.value(std::numeric_limits<std::uint64_t>::max()).value(-7).end();
  EXPECT_EQ(six.take(), "[0.333333,448608,1e-07,25,18446744073709551615,-7]");

  JsonWriter ten(JsonWriter::kCompact, 10);
  ten.array().value(1.0 / 3.0).value(448607.7254).value(25.0).end();
  EXPECT_EQ(ten.take(), "[0.3333333333,448607.7254,25]");

  JsonWriter fixed(JsonWriter::kCompact);
  fixed.array().fixed(12.3456, 3).fixed(2.0, 3).fixed(0.0004, 3).end();
  EXPECT_EQ(fixed.take(), "[12.346,2.000,0.000]");
}

TEST(JsonWriter, NonFiniteNumbersPrintAsNull) {
  JsonWriter w(JsonWriter::kCompact);
  w.array().value(kNan).value(kInf).value(-kInf);
  w.fixed(kNan, 3).fixed(-kInf, 3).end();
  EXPECT_EQ(w.take(), "[null,null,null,null,null]");
}

TEST(JsonWriter, FlushKeepsThePlaceInTheDocument) {
  std::ostringstream os;
  JsonWriter w;
  w.object().key("a").array().value(1).flush(os);
  w.value(2).end().end().flush(os);
  EXPECT_EQ(os.str(), "{\n  \"a\": [\n    1,\n    2\n  ]\n}\n");
}

// Each artifact writer, handed NaN and +-inf, writes a document json_parse
// accepts, with null where the number was. Before the one writer, %.6g
// printed nan/inf, which no JSON parser reads.
TEST(ObsArtifacts, NonFiniteNumbersWriteNullAndParse) {
  for (const double x : {kNan, kInf, -kInf}) {
    SCOPED_TRACE(x);
    {
      MetricsRegistry reg;
      reg.gauge("g").set(x);
      reg.histogram("h", {1.0}).observe(x);
      std::ostringstream os;
      reg.write_json(os);
      const JsonValue doc = parsed(os.str());
      EXPECT_TRUE(doc.at("gauges").at("g").is_null());
      EXPECT_TRUE(doc.at("histograms").at("h").at("sum").is_null());
    }
    {
      const std::string dir = ::testing::TempDir() + "gt_json_nonfinite";
      MetricsRegistry reg;
      reg.gauge("g").set(x);
      reg.histogram("h", {1.0}).observe(x);
      live::SnapshotterOptions opt;
      opt.dir = dir;
      live::TelemetrySnapshotter snap(reg, opt);
      ASSERT_TRUE(snap.tick());
      std::ostringstream os;
      snap.write_snapshot(snap.ring().newest(), os);
      std::filesystem::remove_all(dir);
      const JsonValue doc = parsed(os.str());
      EXPECT_TRUE(doc.at("gauges").at("g").is_null());
      EXPECT_TRUE(doc.at("histograms").at("h").at("mean").is_null());
    }
    {
      BenchReporter& r = BenchReporter::global();
      r.clear();
      r.add_claim("speedup", x, x, "x");
      std::ostringstream os;
      r.write_json(os);
      r.clear();
      const JsonValue doc = parsed(os.str());
      ASSERT_EQ(doc.at("rows").as_array().size(), 1u);
      EXPECT_TRUE(doc.at("rows").as_array()[0].at("measured").is_null());
      EXPECT_TRUE(doc.at("rows").as_array()[0].at("paper").is_null());
    }
    {
      attrib::KernelLedger ledger;
      ledger.arm("");
      attrib::BatchTotals t;
      t.end_to_end_us = x;
      ledger.record_batch(t, {{"k", "combination", "fwd", 1, x, 0, 0}});
      std::ostringstream os;
      ledger.write_json(os);
      const JsonValue doc = parsed(os.str());
      EXPECT_TRUE(doc.at("totals").at("end_to_end_us").is_null());
      EXPECT_TRUE(doc.at("kernels").at("k|fwd|b2^0").at("total_us").is_null());
    }
    {
      Tracer& tracer = Tracer::global();
      tracer.clear();
      tracer.enable(true);
      { Span("nonfinite", "test").arg("x", x); }
      tracer.enable(false);
      const auto events = tracer.snapshot();
      tracer.clear();
      ASSERT_EQ(events.size(), 1u);
      EXPECT_TRUE(parsed("{" + events[0].args_json + "}").at("x").is_null());
    }
    {
      const std::string line =
          live::Event(live::Severity::kInfo, "nonfinite").field("x", x)
              .render();
      EXPECT_TRUE(parsed(line).at("fields").at("x").is_null());
    }
  }
}

}  // namespace
}  // namespace gt::obs
