#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "json_checker.hpp"
#include "obs/json.hpp"
#include "obs/obs_hook.hpp"
#include "obs/trace.hpp"

namespace gt::obs {
namespace {

BenchReporter& fresh_global() {
  BenchReporter& r = BenchReporter::global();
  r.clear();
  return r;
}

BenchRow row(const std::string& metric, const std::string& dataset,
             const std::string& framework, double paper, double measured,
             const std::string& unit = "x") {
  BenchRow r;
  r.metric = metric;
  r.dataset = dataset;
  r.framework = framework;
  r.unit = unit;
  r.paper = paper;
  r.measured = measured;
  return r;
}

TEST(JsonParser, AcceptsValuesAndReportsErrors) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(R"({"a":[1,2.5,-3e2],"b":"x\"y","c":null})", &v,
                         &err))
      << err;
  EXPECT_TRUE(v.is_object());
  ASSERT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[2].as_number(), -300.0);
  EXPECT_EQ(v.string_at("b"), "x\"y");
  EXPECT_TRUE(v.at("c").is_null());
  EXPECT_TRUE(v.at("missing").is_null());

  EXPECT_FALSE(json_parse("{\"a\":}", &v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(json_parse("[1,2] trailing", &v, &err));
}

TEST(BenchReporter, RowsInheritContextFigure) {
  BenchReporter& r = fresh_global();
  r.set_context("Fig X", "a test figure");
  r.add_row(row("speedup", "products", "Dynamic-GT", 2.0, 1.9));
  r.add_claim("overall speedup", 3.0, 2.8, "x");
  auto rows = r.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].figure, "Fig X");
  EXPECT_EQ(rows[1].figure, "Fig X");
  EXPECT_EQ(rows[1].metric, "overall speedup");
  // The key identifies a row across runs.
  EXPECT_NE(rows[0].key(), rows[1].key());
  r.clear();
  EXPECT_EQ(r.row_count(), 0u);
}

TEST(BenchReporter, JsonRoundTripPreservesRowsAndMeta) {
  BenchReporter& r = fresh_global();
  r.set_binary("unit_test");
  r.set_iterations(3);
  r.set_context("Fig Y", "round-trip \"figure\"");
  r.add_row(row("latency", "wiki-talk", "PyG-MT", 100.0, 97.5, "us"));
  r.add_row(row("cache x", "products", "", 0.0, 1.25));

  std::ostringstream os;
  r.write_json(os);
  const std::string json = os.str();
  r.clear();
  EXPECT_TRUE(testing::JsonChecker(json).valid()) << json;

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(json, &doc, &err)) << err;
  EXPECT_DOUBLE_EQ(doc.number_at("schema_version"),
                   kBenchReportSchemaVersion);
  EXPECT_EQ(doc.at("figures").string_at("Fig Y"), "round-trip \"figure\"");

  BenchReport parsed;
  ASSERT_TRUE(BenchReport::from_json(doc, &parsed, &err)) << err;
  EXPECT_EQ(parsed.schema_version, kBenchReportSchemaVersion);
  EXPECT_EQ(parsed.meta.binary, "unit_test");
  EXPECT_EQ(parsed.meta.iterations, 3);
  ASSERT_EQ(parsed.rows.size(), 2u);
  EXPECT_EQ(parsed.rows[0].figure, "Fig Y");
  EXPECT_EQ(parsed.rows[0].metric, "latency");
  EXPECT_EQ(parsed.rows[0].unit, "us");
  EXPECT_DOUBLE_EQ(parsed.rows[0].paper, 100.0);
  EXPECT_DOUBLE_EQ(parsed.rows[0].measured, 97.5);
  EXPECT_EQ(parsed.rows[1].framework, "");
  EXPECT_DOUBLE_EQ(parsed.rows[1].measured, 1.25);
}

TEST(BenchReporter, WriteIsByteStable) {
  BenchReporter& r = fresh_global();
  r.set_context("Fig Z", "stability");
  r.add_row(row("m", "d", "", 1.0, 1.5));
  std::ostringstream a, b;
  r.write_json(a);
  r.write_json(b);
  r.clear();
  EXPECT_EQ(a.str(), b.str());
}

TEST(BenchReport, RejectsWrongSchemaVersion) {
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(R"({"schema_version":999,"rows":[]})", &doc, &err));
  BenchReport parsed;
  EXPECT_FALSE(BenchReport::from_json(doc, &parsed, &err));
  EXPECT_NE(err.find("schema"), std::string::npos) << err;
}

// A bench report is rows and metadata only, so a hook that holds just a
// report path must leave span tracing off.
TEST(ObsHook, BenchReportPathAloneLeavesTracingOff) {
  Tracer::global().enable(false);
  const std::string path = ::testing::TempDir() + "gt_obs_hook_bench.json";
  BenchReporter& r = fresh_global();
  {
    ObsHook hook("", "", path, "");
    EXPECT_FALSE(Tracer::global().enabled());
    r.set_context("Fig H", "hook test");
    r.add_row(row("latency", "products", "", 0.0, 2.5, "us"));
  }
  r.clear();
  EXPECT_FALSE(Tracer::global().enabled());

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse_file(path, &doc, &err)) << err;
  std::remove(path.c_str());
  // Exactly the rows-and-metadata members: no derived analysis section.
  std::vector<std::string> members;
  for (const auto& [key, value] : doc.as_object()) members.push_back(key);
  EXPECT_EQ(members, (std::vector<std::string>{"figures", "meta", "rows",
                                               "schema_version"}));
  BenchReport parsed;
  ASSERT_TRUE(BenchReport::from_json(doc, &parsed, &err)) << err;
  ASSERT_EQ(parsed.rows.size(), 1u);
  EXPECT_EQ(parsed.rows[0].figure, "Fig H");
  EXPECT_DOUBLE_EQ(parsed.rows[0].measured, 2.5);
}

}  // namespace
}  // namespace gt::obs
