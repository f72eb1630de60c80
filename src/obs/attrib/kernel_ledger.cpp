#include "obs/attrib/kernel_ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/json.hpp"
#include "obs/live/event_log.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace gt::obs::attrib {

namespace {

constexpr const char* kStageKeys[4] = {"sampling_us", "reindex_us",
                                       "lookup_us", "transfer_us"};

}  // namespace

std::string shape_signature(std::size_t blocks) {
  if (blocks == 0) return "b0";
  unsigned k = 0;
  std::size_t edge = 1;  // bucket upper bound 2^k (inclusive-exclusive of 2x)
  while (edge < blocks) {
    edge <<= 1;
    ++k;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "b2^%u", k);
  return buf;
}

StageTerms stage_terms(const BatchTotals& totals) {
  StageTerms t;
  double busy = 0.0;
  for (double b : totals.stage_busy_us) busy += b;
  if (busy > 0.0)
    for (int i = 0; i < 4; ++i)
      t.stage_us[i] = totals.stage_busy_us[i] * totals.makespan_us / busy;
  t.fwp_us = totals.fwp_us;
  t.bwp_us = totals.bwp_us;
  t.hidden_us = totals.makespan_us + totals.fwp_us + totals.bwp_us -
                totals.end_to_end_us;
  return t;
}

KernelLedger& KernelLedger::global() {
  static KernelLedger* ledger = new KernelLedger();  // leaked on purpose
  return *ledger;
}

void KernelLedger::arm(std::string out_path) {
  std::lock_guard<std::mutex> lock(mu_);
  out_path_ = std::move(out_path);
  reset();
  armed_.store(true, std::memory_order_release);
}

void KernelLedger::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_release);
  out_path_.clear();
  reset();
}

std::string KernelLedger::out_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return out_path_;
}

void KernelLedger::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  reset();
}

void KernelLedger::reset() {
  batches_ = 0;
  end_to_end_us_ = 0.0;
  makespan_us_ = 0.0;
  terms_ = StageTerms{};
  kernels_.clear();
  costmodel_.clear();
  residual_pcts_.clear();
}

void KernelLedger::record_batch(const BatchTotals& totals,
                                const std::vector<KernelRecord>& kernels) {
  if (!armed()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++batches_;
  end_to_end_us_ += totals.end_to_end_us;
  makespan_us_ += totals.makespan_us;
  // Split per batch, then summed: linearity keeps the identity exact on
  // the totals.
  const StageTerms t = stage_terms(totals);
  for (int i = 0; i < 4; ++i) terms_.stage_us[i] += t.stage_us[i];
  terms_.fwp_us += t.fwp_us;
  terms_.bwp_us += t.bwp_us;
  terms_.hidden_us += t.hidden_us;

  for (const KernelRecord& k : kernels) {
    const std::string shape = shape_signature(k.blocks);
    std::string key = k.name;
    key += '|';
    key += k.phase;
    key += '|';
    key += shape;
    if (k.device >= 0) {  // one class per device lane in sharded runs
      key += "|dev";
      key += std::to_string(k.device);
    }
    auto [it, inserted] = kernels_.try_emplace(std::move(key));
    KernelClass& cls = it->second;
    if (inserted) {
      cls.name = k.name;
      cls.category = k.category;
      cls.phase = k.phase;
      cls.shape = shape;
      cls.device = k.device;
      cls.blocks_min = cls.blocks_max = k.blocks;
    } else {
      cls.blocks_min = std::min(cls.blocks_min, k.blocks);
      cls.blocks_max = std::max(cls.blocks_max, k.blocks);
    }
    ++cls.launches;
    cls.total_us += k.latency_us;
    cls.flops += static_cast<double>(k.flops);
    cls.global_bytes += static_cast<double>(k.global_bytes);
  }
}

void KernelLedger::record_prediction(const std::string& class_key,
                                     double predicted_us, double measured_us,
                                     bool fitted) {
  if (!armed()) return;
  std::lock_guard<std::mutex> lock(mu_);
  CostClass& cls = costmodel_[class_key];
  ++cls.samples;
  cls.predicted_us += predicted_us;
  cls.measured_us += measured_us;
  if (fitted) {
    ++cls.fitted_samples;
    if (measured_us > 0.0)
      residual_pcts_.push_back(100.0 *
                               std::abs(predicted_us - measured_us) /
                               measured_us);
  }
}

std::size_t KernelLedger::batch_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

std::size_t KernelLedger::kernel_class_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kernels_.size();
}

void KernelLedger::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  // %.10g: wide enough that re-parsed sums reproduce the invariant checks
  // to ~1e-6 relative, still a canonical shortest-ish form so identical
  // accumulations serialize byte-identically (house style elsewhere is
  // %.6g; the ledger is the one artifact whose numbers get *summed*
  // downstream).
  JsonWriter w(JsonWriter::kPretty, 10);
  w.object().member("schema_version", kKernelLedgerSchemaVersion);
  w.key("meta").object(JsonWriter::kInline);
  w.member("drift_threshold_pct", kCostModelDriftPct).end();
  w.key("totals").object().member("batches", batches_);
  w.member("end_to_end_us", end_to_end_us_);
  w.member("makespan_us", makespan_us_);
  for (int i = 0; i < 4; ++i) w.member(kStageKeys[i], terms_.stage_us[i]);
  w.member("fwp_us", terms_.fwp_us).member("bwp_us", terms_.bwp_us);
  w.member("overlap_hidden_us", terms_.hidden_us).end();
  w.key("kernels").object();
  for (const auto& [key, cls] : kernels_) {
    w.key(key).object(JsonWriter::kInline).member("name", cls.name);
    w.member("category", cls.category).member("phase", cls.phase);
    w.member("shape", cls.shape);
    if (cls.device >= 0) w.member("device", cls.device);
    w.member("blocks_min", cls.blocks_min);
    w.member("blocks_max", cls.blocks_max);
    w.member("launches", cls.launches).member("total_us", cls.total_us);
    w.member("flops", cls.flops).member("global_bytes", cls.global_bytes);
    w.end();
  }

  // Residual distribution over the per-sample pcts recorded here (matches
  // DkpCostModel::residual_summary on the same stream).
  double p50 = 0.0, p95 = 0.0, mean = 0.0;
  if (!residual_pcts_.empty()) {
    std::vector<double> errs = residual_pcts_;
    std::sort(errs.begin(), errs.end());
    p50 = nearest_rank(errs, 0.50);
    p95 = nearest_rank(errs, 0.95);
    for (double e : errs) mean += e;
    mean /= static_cast<double>(errs.size());
  }
  w.end().key("costmodel").object().key("classes").object();
  for (const auto& [key, cls] : costmodel_) {
    w.key(key).object(JsonWriter::kInline).member("samples", cls.samples);
    w.member("fitted_samples", cls.fitted_samples);
    w.member("predicted_us", cls.predicted_us);
    w.member("measured_us", cls.measured_us).end();
  }
  w.end().key("residual").object(JsonWriter::kInline);
  w.member("samples", residual_pcts_.size()).member("p50_pct", p50);
  w.member("p95_pct", p95).member("mean_pct", mean);
  w.end().end().end().flush(os);
}

bool KernelLedger::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_json(os);
  return static_cast<bool>(os);
}

bool KernelLedger::write_json_file() const {
  const std::string path = out_path();
  if (path.empty()) return false;
  return write_json_file(path);
}

void observe_costmodel_residuals(std::size_t samples, double p50_pct,
                                 double p95_pct) {
  if (samples == 0) return;
  metrics().gauge("costmodel.residual.p50").set(p50_pct);
  metrics().gauge("costmodel.residual.p95").set(p95_pct);
  // Rising-edge latch: one drift event per excursion above the threshold,
  // not one per batch while the model stays drifted.
  static std::atomic<bool> drifted{false};
  const bool over = p95_pct > kCostModelDriftPct;
  if (over && !drifted.exchange(true, std::memory_order_relaxed)) {
    metrics().counter("costmodel.drift").add(1);
    if (live::EventLog::global().armed()) {
      live::EventLog::global().emit(
          live::Event(live::Severity::kWarn, "costmodel.drift")
              .msg("DKP cost-model residual p95 above drift threshold")
              .field("p50_pct", p50_pct)
              .field("p95_pct", p95_pct)
              .field("threshold_pct", kCostModelDriftPct)
              .field("samples", static_cast<std::uint64_t>(samples)));
    }
  } else if (!over) {
    drifted.store(false, std::memory_order_relaxed);
  }
}

}  // namespace gt::obs::attrib
