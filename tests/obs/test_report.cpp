#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "json_checker.hpp"
#include "obs/attrib/explain.hpp"
#include "obs/attrib/kernel_ledger.hpp"
#include "obs/json.hpp"
#include "obs/live/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_hook.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

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

TEST(JsonParser, RejectsDeepNestingWithoutCrashing) {
  JsonValue v;
  std::string err;
  // Without a cap, recursion this deep overflows the parser's stack.
  EXPECT_FALSE(json_parse(std::string(100000, '['), &v, &err));
  EXPECT_EQ(err, "JSON parse error at byte 512: nesting deeper than 512");
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"k\":";
  EXPECT_FALSE(json_parse(objects, &v, &err));
  EXPECT_NE(err.find("nesting deeper than 512"), std::string::npos) << err;

  // The cap itself is accepted; one level more is not.
  const auto nested = [](int depth) {
    return std::string(depth, '[') + "0" + std::string(depth, ']');
  };
  ASSERT_TRUE(json_parse(nested(kJsonMaxDepth), &v, &err)) << err;
  EXPECT_TRUE(v.is_array());
  EXPECT_FALSE(json_parse(nested(kJsonMaxDepth + 1), &v, &err));
  EXPECT_TRUE(v.is_null());
  EXPECT_NE(err.find("nesting deeper than 512"), std::string::npos) << err;
}

/// A bench report, a kernels.json and a telemetry snapshot, as the repo's
/// writers produce them: the documents the parser reads back.
std::vector<std::string> writer_documents() {
  std::vector<std::string> docs;
  {
    BenchReporter& r = BenchReporter::global();
    r.clear();
    r.set_binary("json_mutation");
    r.set_context("Fig M", "mutation \"seed\"");
    r.add_row(row("latency", "wiki-talk", "PyG-MT", 100.0, 97.5, "us"));
    r.add_row(row("speedup", "products", "", 2.0, 1.25));
    r.add_claim("overall speedup", 3.0, 2.8, "x");
    std::ostringstream os;
    r.write_json(os);
    r.clear();
    docs.push_back(os.str());
  }
  {
    attrib::KernelLedger ledger;
    ledger.arm("");
    attrib::BatchTotals t;
    t.stage_busy_us[0] = 100.0;
    t.stage_busy_us[3] = 20.0;
    t.makespan_us = 110.0;
    t.fwp_us = 40.0;
    t.bwp_us = 30.0;
    t.end_to_end_us = 150.0;
    ledger.record_batch(
        t, {{"Apply.MatMul", "combination", "fwd", 300, 15.0, 2000, 2048},
            {"napa.Pull", "aggregation", "bwd", 1024, 30.0, 1500, 8192}});
    ledger.record_prediction("fwd/aggregation-first/L0", 9.5, 10.0, true);
    std::ostringstream os;
    ledger.write_json(os);
    docs.push_back(os.str());
  }
  {
    const std::string dir = ::testing::TempDir() + "gt_json_mutation_snap";
    MetricsRegistry reg;
    reg.counter("work.items").add(5);
    reg.gauge("p99").set(123.5);
    reg.histogram("lat_us", {1.0, 10.0}).observe(3.0);
    live::SnapshotterOptions opt;
    opt.dir = dir;
    live::TelemetrySnapshotter snap(reg, opt);
    snap.tick();
    reg.counter("work.items").add(3);
    snap.tick();
    std::ostringstream os;
    snap.write_snapshot(snap.ring().newest(), os);
    std::filesystem::remove_all(dir);
    docs.push_back(os.str());
  }
  return docs;
}

// Seeded mutation fuzzing of the parser, after Options.SurvivesMutatedArgv:
// whatever the mutations make of a writer's document, json_parse either
// accepts it or rejects it with a positioned message, and never crashes
// (the suite also runs under ASan + UBSan).
TEST(JsonParser, SurvivesMutatedDocuments) {
  const std::vector<std::string> seeds = writer_documents();
  JsonValue v;
  std::string err;
  for (const std::string& doc : seeds) ASSERT_TRUE(json_parse(doc, &v, &err));

  const std::string prefix = "JSON parse error at byte ";
  Xoshiro256 rng(20261017);
  std::size_t accepted = 0, rejected = 0, too_deep = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string doc = seeds[rng.uniform(seeds.size())];
    const std::uint64_t mutations = 1 + rng.uniform(3);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      const std::size_t at = rng.uniform(doc.size() + 1);
      switch (rng.uniform(5)) {
        case 0:  // truncate
          doc.resize(at);
          break;
        case 1:  // overwrite one byte (any value, including NUL)
          if (!doc.empty())
            doc[rng.uniform(doc.size())] = static_cast<char>(rng.uniform(256));
          break;
        case 2:  // duplicate a span in place
          doc.insert(at, doc.substr(at, 1 + rng.uniform(64)));
          break;
        case 3:  // delete a span
          doc.erase(at, 1 + rng.uniform(64));
          break;
        default: {  // splice in nesting, sometimes far past the cap
          const std::size_t depth = rng.uniform(8) == 0
                                        ? 100000
                                        : 1 + rng.uniform(2 * kJsonMaxDepth);
          const bool arrays = rng.uniform(2) == 0;
          std::string open, close;
          for (std::size_t d = 0; d < depth; ++d) {
            open += arrays ? "[" : "{\"k\":";
            close += arrays ? "]" : "}";
          }
          doc.insert(at, rng.uniform(2) == 0 ? open : open + "0" + close);
        }
      }
    }
    err.clear();
    if (json_parse(doc, &v, &err)) {
      ++accepted;
      continue;
    }
    ++rejected;
    EXPECT_TRUE(v.is_null());
    ASSERT_EQ(err.rfind(prefix, 0), 0u) << err;
    EXPECT_LE(std::stoull(err.substr(prefix.size())), doc.size()) << err;
    if (err.find("nesting deeper than 512") != std::string::npos) ++too_deep;
  }
  // The mutations must exercise both outcomes, and the cap, to mean
  // anything.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(too_deep, 10u);
}

/// One structural edit of a parsed document, applied while JsonWriter
/// re-emits it: the node at preorder position `target` (members and array
/// elements count, the root does not) is replaced, deleted or duplicated.
struct TreeEdit {
  enum Kind {
    kNumber, kString, kNull, kArray, kHuge, kNegative, kFraction, kDelete,
    kDuplicate, kKinds
  };
  std::size_t target = 0;
  Kind kind = kNumber;
  std::size_t seen = 0;
};

std::size_t count_nodes(const JsonValue& v) {
  std::size_t n = 0;
  for (const auto& [key, child] : v.as_object()) n += 1 + count_nodes(child);
  for (const JsonValue& child : v.as_array()) n += 1 + count_nodes(child);
  return n;
}

void emit_edited(JsonWriter& w, const JsonValue& v, TreeEdit& edit);

void emit_child(JsonWriter& w, const std::string* key, const JsonValue& v,
                TreeEdit& edit) {
  const bool hit = edit.seen++ == edit.target;
  if (hit && edit.kind == TreeEdit::kDelete) return;
  const int copies = hit && edit.kind == TreeEdit::kDuplicate ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    if (key != nullptr) w.key(*key);
    if (!hit || edit.kind == TreeEdit::kDuplicate) {
      emit_edited(w, v, edit);
      continue;
    }
    switch (edit.kind) {
      case TreeEdit::kNumber: w.value(42); break;
      case TreeEdit::kString: w.value("mutant"); break;
      case TreeEdit::kNull: w.raw("null"); break;
      case TreeEdit::kArray: w.array().value(1).value("x").end(); break;
      case TreeEdit::kHuge: w.raw("1e300"); break;
      case TreeEdit::kNegative: w.value(-1); break;
      default: w.value(1.5); break;
    }
  }
}

void emit_edited(JsonWriter& w, const JsonValue& v, TreeEdit& edit) {
  switch (v.kind()) {
    case JsonValue::Kind::kObject:
      w.object();
      for (const auto& [key, child] : v.as_object())
        emit_child(w, &key, child, edit);
      w.end();
      break;
    case JsonValue::Kind::kArray:
      w.array();
      for (const JsonValue& child : v.as_array())
        emit_child(w, nullptr, child, edit);
      w.end();
      break;
    case JsonValue::Kind::kString: w.value(v.as_string()); break;
    case JsonValue::Kind::kNumber: w.value(v.as_number()); break;
    case JsonValue::Kind::kBool: w.value(v.as_bool()); break;
    case JsonValue::Kind::kNull: w.raw("null"); break;
  }
}

bool number_or_null(const JsonValue& v) {
  return v.is_number() || v.is_null();
}

/// `doc` with the first `"key": <number>` member's value replaced by
/// `replacement` (raw JSON text).
std::string swap_number(const std::string& doc, const std::string& key,
                        const std::string& replacement) {
  const std::regex member("\"" + key + "\": *-?[0-9][-+.eE0-9]*");
  return std::regex_replace(doc, member, "\"" + key + "\": " + replacement,
                            std::regex_constants::format_first_only);
}

// A number swapped for a string or an array fails the load, and the
// message names the member — it used to load as 0.
TEST(ArtifactLoaders, RejectAStringOrArrayWhereANumberBelongs) {
  const std::vector<std::string> seeds = writer_documents();
  const std::string path = ::testing::TempDir() + "gt_loader_types.json";
  for (const std::string replacement : {"\"mutant\"", "[1, \"x\"]"}) {
    std::string err;
    BenchReport report;
    std::ofstream(path, std::ios::trunc)
        << swap_number(seeds[0], "measured", replacement);
    EXPECT_FALSE(BenchReport::load(path, &report, &err)) << replacement;
    EXPECT_NE(err.find("rows[0].measured"), std::string::npos) << err;
    for (const char* key : {"fwp_us", "total_us", "p95_pct"}) {
      attrib::LedgerData ledger;
      err.clear();
      std::ofstream(path, std::ios::trunc)
          << swap_number(seeds[1], key, replacement);
      EXPECT_FALSE(attrib::LedgerData::load(path, &ledger, &err))
          << key << " = " << replacement;
      EXPECT_NE(err.find(key), std::string::npos) << err;
    }
  }
  // null still reads as 0 (a non-finite number is written as null).
  attrib::LedgerData ledger;
  std::string err;
  std::ofstream(path, std::ios::trunc)
      << swap_number(seeds[1], "fwp_us", "null");
  ASSERT_TRUE(attrib::LedgerData::load(path, &ledger, &err)) << err;
  EXPECT_EQ(ledger.fwp_us, 0.0);
  std::remove(path.c_str());
}

// Seeded mutation fuzzing of the two artifact loaders, after
// Options.SurvivesMutatedArgv: kernels.json (LedgerData::load, read by
// gt_explain and bench_diff's attribution) and the bench report
// (BenchReport::load / from_json). Most edits keep the document parseable
// so the loaders' own checks run; a quarter also take a byte mutation.
// Every load succeeds or fails with a message, a successful load holds its
// integer fields in range, and the analyses run on whatever loaded (the
// suite also runs under ASan + UBSan with float-cast-overflow).
TEST(ArtifactLoaders, SurviveMutatedWriterDocuments) {
  const std::vector<std::string> seeds = writer_documents();
  const std::string path = ::testing::TempDir() + "gt_loader_mutation.json";
  std::ofstream(path) << seeds[0];
  BenchReport seed_report;
  std::string err;
  ASSERT_TRUE(BenchReport::load(path, &seed_report, &err)) << err;
  std::ofstream(path) << seeds[1];
  attrib::LedgerData seed_ledger;
  ASSERT_TRUE(attrib::LedgerData::load(path, &seed_ledger, &err)) << err;

  Xoshiro256 rng(20261018);
  std::size_t report_loaded = 0, report_rejected = 0;
  std::size_t ledger_loaded = 0, ledger_rejected = 0;
  std::ostringstream sink;
  for (int iter = 0; iter < 1500; ++iter) {
    std::string doc = seeds[rng.uniform(seeds.size())];
    const std::uint64_t edits = 1 + rng.uniform(2);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const JsonValue tree = json_parse_or_null(doc);
      const std::size_t nodes = count_nodes(tree);
      if (nodes == 0) break;
      TreeEdit edit;
      edit.target = rng.uniform(nodes);
      edit.kind = static_cast<TreeEdit::Kind>(rng.uniform(TreeEdit::kKinds));
      JsonWriter w(JsonWriter::kPretty, 17);
      emit_edited(w, tree, edit);
      doc = w.take();
    }
    if (rng.uniform(4) == 0 && !doc.empty()) {
      const std::size_t at = rng.uniform(doc.size());
      switch (rng.uniform(3)) {
        case 0: doc.resize(at); break;
        case 1: doc[at] = static_cast<char>(rng.uniform(256)); break;
        default: doc.erase(at, 1 + rng.uniform(16)); break;
      }
    }
    std::ofstream(path, std::ios::trunc) << doc;

    BenchReport report;
    err.clear();
    if (BenchReport::load(path, &report, &err)) {
      ++report_loaded;
      // Every double the loader read was a number or null.
      const JsonValue tree = json_parse_or_null(doc);
      for (const JsonValue& r : tree.at("rows").as_array())
        for (const char* key : {"paper", "measured"})
          EXPECT_TRUE(number_or_null(r.at(key))) << key;
      EXPECT_EQ(report.schema_version, kBenchReportSchemaVersion);
      EXPECT_GE(report.meta.threads, 0);
      EXPECT_GE(report.meta.iterations, 0);
      diff_reports(seed_report, report, 0.05);
      diff_reports(report, seed_report, 0.05);
    } else {
      ++report_rejected;
      EXPECT_FALSE(err.empty());
    }

    attrib::LedgerData ledger;
    err.clear();
    if (attrib::LedgerData::load(path, &ledger, &err)) {
      ++ledger_loaded;
      const JsonValue tree = json_parse_or_null(doc);
      EXPECT_EQ(static_cast<double>(ledger.batches),
                tree.at("totals").number_at("batches"));
      EXPECT_EQ(static_cast<double>(ledger.residual_samples),
                tree.at("costmodel").at("residual").number_at("samples"));
      for (const auto& [key, v] : tree.at("totals").as_object()) {
        if (key == "batches") continue;
        EXPECT_TRUE(number_or_null(v)) << key;
      }
      for (const auto& [key, v] : tree.at("kernels").as_object())
        for (const char* member : {"total_us", "launches"})
          EXPECT_TRUE(number_or_null(v.at(member))) << key << member;
      for (const char* member : {"p50_pct", "p95_pct"})
        EXPECT_TRUE(number_or_null(
            tree.at("costmodel").at("residual").at(member)))
            << member;
      attrib::write_json(attrib::attribute(seed_ledger, ledger), sink);
      attrib::write_text(attrib::attribute(ledger, seed_ledger), sink, 5);
      attrib::run_self_test(ledger, sink);
    } else {
      ++ledger_rejected;
      EXPECT_FALSE(err.empty());
    }
    sink.str("");
  }
  std::remove(path.c_str());
  // Both outcomes, for both loaders, or the test shows nothing.
  EXPECT_GT(report_loaded, 150u);
  EXPECT_GT(report_rejected, 150u);
  EXPECT_GT(ledger_loaded, 150u);
  EXPECT_GT(ledger_rejected, 150u);
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

// An integer field holding a hostile number fails the load with an error
// that names the field; it must never reach a float-to-integer cast, which
// is undefined behaviour out of range.
TEST(BenchReport, RejectsNonIntegralOrOutOfRangeIntegerFields) {
  BenchReporter& r = fresh_global();
  r.set_binary("unit_test");
  r.add_row(row("latency", "products", "", 1.0, 1.0, "us"));
  std::ostringstream os;
  r.write_json(os);
  r.clear();
  const std::string good = os.str();
  for (const char* key : {"schema_version", "threads", "iterations"}) {
    for (const char* value : {"1e300", "-1", "1.5", "-5"}) {
      std::string text = good;
      const std::string needle = std::string("\"") + key + "\": ";
      const std::size_t found = text.find(needle);
      ASSERT_NE(found, std::string::npos) << key;
      const std::size_t at = found + needle.size();
      text.replace(at, text.find_first_of(",\n}", at) - at, value);
      JsonValue doc;
      std::string err;
      ASSERT_TRUE(json_parse(text, &doc, &err)) << err;
      BenchReport parsed;
      EXPECT_FALSE(BenchReport::from_json(doc, &parsed, &err))
          << key << " = " << value;
      EXPECT_NE(err.find(key), std::string::npos) << err;
    }
  }
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
