// Live telemetry integration at the service level: a chaos run (faults
// armed, ring workers) must leave snapshots plus a structured event log
// whose correlation ids stitch each batch's causal chain together, and
// arming telemetry must not change a single trained or priced value.
#include "core/graphtensor.hpp"

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "fault/harness.hpp"
#include "obs/live/worker_profiler.hpp"

namespace gt {
namespace {

ServiceOptions base_options() {
  ServiceOptions opt;
  opt.framework = "Prepro-GT";
  opt.batch_size = 48;
  return opt;
}

GnnService make_service(ServiceOptions opt) {
  return GnnService(generate("products", 3), models::gcn(8, 47), opt);
}

std::string fresh_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "gt_svc_tel_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// Value of a numeric JSON member on an events.jsonl line (-1 if absent).
std::int64_t json_int(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(line.c_str() + at + needle.size());
}

bool has_type(const std::string& line, const std::string& type) {
  return line.find("\"type\":\"" + type + "\"") != std::string::npos;
}

// --- Chaos run: snapshots + cid-correlated event log -------------------------

TEST(ServiceTelemetry, ChaosRunEmitsSnapshotsAndCorrelatedEvents) {
  const std::string dir = fresh_dir("chaos");
  ServiceOptions opt = base_options();
  opt.workers = 4;
  // Batch 2 takes one transient prepare fault (recovers); batch 5 exhausts
  // the retry budget in the kernel and degrades.
  opt.fault_spec = "preproc.sample@batch=2;gpusim.kernel@batch=5:times=9";
  opt.telemetry.out_dir = dir;
  opt.telemetry.interval = 2;
  {
    GnnService service = make_service(opt);
    ASSERT_NE(service.telemetry(), nullptr);
    ASSERT_TRUE(service.telemetry()->started());
    const auto reports = service.train_batches(8);
    ASSERT_EQ(reports.size(), 8u);
    EXPECT_TRUE(reports[2].ok());
    EXPECT_EQ(reports[2].retries, 1u);
    EXPECT_TRUE(reports[5].failed);
    ASSERT_NE(service.telemetry()->snapshotter(), nullptr);
    EXPECT_GE(service.telemetry()->snapshotter()->snapshots_emitted(), 2u);
    // Service destruction stops telemetry: final snapshot + clean close.
  }

  EXPECT_TRUE(std::filesystem::exists(dir + "/latest.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/snapshot-0.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/snapshot-1.json"));

  const auto lines = read_lines(dir + "/events.jsonl");
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines.front().find("telemetry.start"), std::string::npos);
  EXPECT_NE(lines.back().find("telemetry.stop"), std::string::npos);

  // Every retry/degradation must resolve to a fault-injection event with
  // the same correlation id — the chain is one grep per cid.
  std::unordered_set<std::int64_t> fault_cids;
  std::size_t retries = 0, degraded = 0, injected = 0;
  for (const std::string& line : lines) {
    if (has_type(line, "fault.inject")) {
      const std::int64_t cid = json_int(line, "cid");
      EXPECT_GT(cid, 0) << line;  // injection always under a batch scope
      fault_cids.insert(cid);
      ++injected;
    }
  }
  for (const std::string& line : lines) {
    if (has_type(line, "service.retry")) {
      ++retries;
      EXPECT_TRUE(fault_cids.count(json_int(line, "cid"))) << line;
    } else if (has_type(line, "service.degraded")) {
      ++degraded;
      EXPECT_TRUE(fault_cids.count(json_int(line, "cid"))) << line;
    }
  }
  EXPECT_GE(injected, 2u);
  EXPECT_GE(retries, 1u);
  EXPECT_EQ(degraded, 1u);

  // cid = batch_index + 1: the recovered batch 2 chains under cid 3, the
  // degraded batch 5 under cid 6.
  EXPECT_TRUE(fault_cids.count(3));
  EXPECT_TRUE(fault_cids.count(6));
  std::filesystem::remove_all(dir);
}

// At one worker the batches run through the same ring, so an abort there
// takes the same unwind as at four: drain, quarantine, crash flush. (The
// old serial loop had no unwind guard and left no post-mortem.)
TEST(ServiceTelemetry, SerialAbortCrashFlushes) {
  const std::string dir = fresh_dir("serial_abort");
  ServiceOptions opt = base_options();
  opt.workers = 1;
  opt.fault_spec = "preproc.sample@batch=1:kind=abort";
  opt.telemetry.out_dir = dir;
  {
    GnnService service = make_service(opt);
    EXPECT_THROW(service.train_batches(4), fault::InjectedFault);
    EXPECT_TRUE(std::filesystem::exists(dir + "/crash-metrics.json"));
    bool flushed = false;
    for (const std::string& line : read_lines(dir + "/events.jsonl"))
      flushed = flushed || has_type(line, "crash.flush");
    EXPECT_TRUE(flushed);
    const auto reports = service.train_batches(2);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_TRUE(reports[0].ok());
    EXPECT_TRUE(reports[1].ok());
  }
  std::filesystem::remove_all(dir);
}

// --- Telemetry must not perturb the computation ------------------------------

TEST(ServiceTelemetry, ArmedRunBitIdenticalToOffRun) {
  ServiceOptions opt = base_options();
  opt.workers = 4;
  opt.fault_spec = "gpusim.kernel@batch=1";  // recovers via one retry
  GnnService off = make_service(opt);

  const std::string dir = fresh_dir("bitident");
  opt.telemetry.out_dir = dir;
  opt.telemetry.interval = 1;
  GnnService armed = make_service(opt);

  const auto a = off.train_batches(6);
  const auto b = armed.train_batches(6);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].loss, b[i].loss);
    EXPECT_EQ(a[i].kernel_launches, b[i].kernel_launches);
    EXPECT_EQ(a[i].kernel_total_us, b[i].kernel_total_us);
    EXPECT_EQ(a[i].end_to_end_us, b[i].end_to_end_us);
    EXPECT_EQ(a[i].flops, b[i].flops);
    EXPECT_EQ(a[i].peak_memory_bytes, b[i].peak_memory_bytes);
    EXPECT_EQ(a[i].retries, b[i].retries);
    EXPECT_EQ(a[i].backoff_ticks, b[i].backoff_ticks);
  }
  // Trained parameters digest-identical; held-out accuracy follows.
  EXPECT_EQ(fault::params_digest(off.params()),
            fault::params_digest(armed.params()));
  EXPECT_DOUBLE_EQ(off.evaluate(2), armed.evaluate(2));
  std::filesystem::remove_all(dir);
}

// --- One host-time measurement per phase -------------------------------------

// The reports' host phase fields and the profiler's phase totals are the
// durations of the same two stage scopes, so they agree to rounding.
TEST(ServiceTelemetry, HostPhaseFieldsSumToProfilerPhaseTotals) {
  using obs::live::Stage;
  for (const std::size_t workers : {1, 2}) {
    SCOPED_TRACE(workers);
    const std::string dir = fresh_dir("host_phases");
    ServiceOptions opt = base_options();
    opt.workers = workers;
    opt.telemetry.out_dir = dir;
    double prepare_us = 0.0, execute_us = 0.0;
    std::array<std::uint64_t, obs::live::kNumStages> totals{};
    {
      GnnService service = make_service(opt);
      for (const frameworks::RunReport& r : service.train_batches(6)) {
        ASSERT_TRUE(r.ok());
        prepare_us += r.host_prepare_us;
        execute_us += r.host_execute_us;
      }
      totals = obs::live::WorkerProfiler::global().stage_totals();
    }
    const auto total_us = [&](Stage s) {
      return static_cast<double>(totals[static_cast<std::size_t>(s)]) / 1e3;
    };
    EXPECT_GT(prepare_us, 0.0);
    EXPECT_GT(execute_us, 0.0);
    EXPECT_NEAR(prepare_us, total_us(Stage::kPrepare), 1e-9 * prepare_us);
    EXPECT_NEAR(execute_us, total_us(Stage::kExecute), 1e-9 * execute_us);
    std::filesystem::remove_all(dir);
  }
}

TEST(ServiceTelemetry, NoTelemetryOptionsMeansNoLiveStack) {
  GnnService service = make_service(base_options());
  EXPECT_EQ(service.telemetry(), nullptr);
  const auto reports = service.train_batches(2);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok());
}

}  // namespace
}  // namespace gt
