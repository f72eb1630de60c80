#include "obs/attrib/explain.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/attrib/kernel_ledger.hpp"
#include "obs/json.hpp"
#include "util/options.hpp"

namespace gt::obs::attrib {

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string fmt_signed(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%+.3f", v);
  return buf;
}

constexpr const char* kStageKeys[4] = {"sampling_us", "reindex_us",
                                       "lookup_us", "transfer_us"};

}  // namespace

double LedgerData::per_batch(double sum_us) const noexcept {
  return sum_us / static_cast<double>(std::max<std::size_t>(batches, 1));
}

bool LedgerData::load(const std::string& path, LedgerData* out,
                      std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = path + ": " + why;
    return false;
  };
  JsonValue doc;
  std::string parse_err;
  if (!json_parse_file(path, &doc, &parse_err)) return fail(parse_err);
  const std::optional<int> ver = doc.int_at<int>("schema_version");
  if (!ver) return fail("schema_version is not an integer");
  if (*ver != kKernelLedgerSchemaVersion)
    return fail("unsupported kernels.json schema_version " +
                std::to_string(*ver));
  LedgerData d;
  const JsonValue& totals = doc.at("totals");
  if (!totals.is_object()) return fail("missing totals object");
  const std::optional<std::size_t> batches =
      totals.int_at<std::size_t>("batches");
  if (!batches) return fail("totals.batches is not a non-negative integer");
  d.batches = *batches;
  // Every double goes through double_at: a string or an array where a
  // number belongs fails the load, naming the member.
  std::string bad;
  auto number = [&](const JsonValue& obj, std::string_view key,
                    const std::string& where, double* dst) {
    const std::optional<double> v = obj.double_at(key);
    if (v) *dst = *v;
    else if (bad.empty()) bad = where;
  };
  number(totals, "end_to_end_us", "totals.end_to_end_us", &d.end_to_end_us);
  number(totals, "makespan_us", "totals.makespan_us", &d.makespan_us);
  for (int i = 0; i < 4; ++i)
    number(totals, kStageKeys[i], std::string("totals.") + kStageKeys[i],
           &d.stage_us[i]);
  number(totals, "fwp_us", "totals.fwp_us", &d.fwp_us);
  number(totals, "bwp_us", "totals.bwp_us", &d.bwp_us);
  number(totals, "overlap_hidden_us", "totals.overlap_hidden_us",
         &d.overlap_hidden_us);

  for (const auto& [key, v] : doc.at("kernels").as_object()) {
    LedgerData::Kernel k;
    k.phase = v.string_at("phase");
    k.category = v.string_at("category");
    number(v, "total_us", "kernels." + key + ".total_us", &k.total_us);
    number(v, "launches", "kernels." + key + ".launches", &k.launches);
    d.kernels.emplace(key, std::move(k));
  }

  const JsonValue& residual = doc.at("costmodel").at("residual");
  const std::optional<std::size_t> samples =
      residual.int_at<std::size_t>("samples");
  if (!samples)
    return fail("costmodel.residual.samples is not a non-negative integer");
  d.residual_samples = *samples;
  number(residual, "p50_pct", "costmodel.residual.p50_pct",
         &d.residual_p50_pct);
  number(residual, "p95_pct", "costmodel.residual.p95_pct",
         &d.residual_p95_pct);
  if (!bad.empty()) return fail(bad + " is not a number");
  *out = std::move(d);
  return true;
}

Attribution attribute(const LedgerData& base, const LedgerData& cur) {
  Attribution a;
  a.base_e2e_us = base.per_batch(base.end_to_end_us);
  a.cur_e2e_us = cur.per_batch(cur.end_to_end_us);
  a.delta_e2e_us = a.cur_e2e_us - a.base_e2e_us;

  // The seven identity terms. overlap_hidden enters the identity negated
  // (it is a *saving*), so it is stored signed: a positive delta on any
  // row always means "this made e2e slower".
  struct Term {
    const char* name;
    double sign;
    double base;
    double cur;
  };
  const Term terms[7] = {
      {"sampling", 1.0, base.stage_us[0], cur.stage_us[0]},
      {"reindex", 1.0, base.stage_us[1], cur.stage_us[1]},
      {"lookup", 1.0, base.stage_us[2], cur.stage_us[2]},
      {"transfer", 1.0, base.stage_us[3], cur.stage_us[3]},
      {"fwp", 1.0, base.fwp_us, cur.fwp_us},
      {"bwp", 1.0, base.bwp_us, cur.bwp_us},
      {"overlap_hidden", -1.0, base.overlap_hidden_us,
       cur.overlap_hidden_us},
  };
  for (const Term& t : terms) {
    StageDelta s;
    s.name = t.name;
    s.base_us = t.sign * base.per_batch(t.base);
    s.cur_us = t.sign * cur.per_batch(t.cur);
    s.delta_us = s.cur_us - s.base_us;
    a.stage_delta_sum_us += s.delta_us;
    a.stages.push_back(std::move(s));
  }

  // Kernel classes: union of both runs' keys, per-batch normalized.
  for (const auto& [key, k] : base.kernels) {
    KernelDelta d;
    d.key = key;
    d.phase = k.phase;
    d.base_us = base.per_batch(k.total_us);
    auto it = cur.kernels.find(key);
    if (it != cur.kernels.end()) d.cur_us = cur.per_batch(it->second.total_us);
    d.delta_us = d.cur_us - d.base_us;
    a.kernels.push_back(std::move(d));
  }
  for (const auto& [key, k] : cur.kernels) {
    if (base.kernels.count(key)) continue;
    KernelDelta d;
    d.key = key;
    d.phase = k.phase;
    d.cur_us = cur.per_batch(k.total_us);
    d.delta_us = d.cur_us;
    a.kernels.push_back(std::move(d));
  }
  std::sort(a.kernels.begin(), a.kernels.end(),
            [](const KernelDelta& x, const KernelDelta& y) {
              if (std::abs(x.delta_us) != std::abs(y.delta_us))
                return std::abs(x.delta_us) > std::abs(y.delta_us);
              return x.key < y.key;  // deterministic tie-break
            });
  for (const KernelDelta& d : a.kernels)
    if (d.phase == "fwd" || d.phase == "bwd") a.kernel_delta_sum_us += d.delta_us;

  a.base_residual_p95_pct = base.residual_p95_pct;
  a.cur_residual_p95_pct = cur.residual_p95_pct;
  return a;
}

void write_top_kernels(const Attribution& a, std::ostream& os,
                       std::size_t top_n) {
  std::size_t shown = 0;
  for (const KernelDelta& k : a.kernels) {
    if (shown >= top_n) break;
    if (k.delta_us == 0.0) continue;
    ++shown;
    os << "  " << shown << ". " << k.key << " [" << k.phase << "] "
       << fmt_signed(k.delta_us) << " us/batch (" << fmt(k.base_us) << " -> "
       << fmt(k.cur_us) << ")\n";
  }
  if (shown == 0) os << "  (no kernel-class movement)\n";
}

void write_text(const Attribution& a, std::ostream& os, std::size_t top_n) {
  os << "gt_explain: end-to-end " << fmt(a.base_e2e_us) << " -> "
     << fmt(a.cur_e2e_us) << " us/batch (" << fmt_signed(a.delta_e2e_us);
  if (a.base_e2e_us > 0.0)
    os << ", " << fmt_signed(100.0 * a.delta_e2e_us / a.base_e2e_us) << "%";
  os << ")\n\n";
  os << "Stage attribution (signed terms; positive delta = slower; the\n"
        "overlap saving enters negated):\n";
  os << "  stage              base us/b     cur us/b    delta us/b\n";
  for (const StageDelta& s : a.stages) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-16s %12.3f %12.3f %+13.3f\n",
                  s.name.c_str(), s.base_us, s.cur_us, s.delta_us);
    os << line;
  }
  char sum_line[160];
  std::snprintf(sum_line, sizeof(sum_line),
                "  %-16s %12s %12s %+13.3f  (e2e delta %+.3f)\n", "sum", "",
                "", a.stage_delta_sum_us, a.delta_e2e_us);
  os << sum_line;

  os << "\nTop kernel classes by |delta| (fwd+bwd kernel sum "
     << fmt_signed(a.kernel_delta_sum_us) << " us/batch = delta fwp+bwp):\n";
  write_top_kernels(a, os, top_n);

  os << "\nCost-model residual p95: " << fmt(a.base_residual_p95_pct)
     << "% -> " << fmt(a.cur_residual_p95_pct) << "%";
  if (a.cur_residual_p95_pct > a.base_residual_p95_pct &&
      a.cur_residual_p95_pct > kCostModelDriftPct) {
    os << "  ** drift: above " << fmt(kCostModelDriftPct)
       << "% threshold — re-fit or inspect the DKP model **";
  }
  os << "\n";
}

void write_json(const Attribution& a, std::ostream& os) {
  JsonWriter w;
  w.object().member("schema_version", 1);
  w.key("end_to_end_us_per_batch").object(JsonWriter::kInline);
  w.member("base", a.base_e2e_us).member("current", a.cur_e2e_us);
  w.member("delta", a.delta_e2e_us).end();
  w.member("stage_delta_sum_us", a.stage_delta_sum_us);
  w.member("kernel_delta_sum_us", a.kernel_delta_sum_us);
  w.key("stages").array();
  for (const StageDelta& s : a.stages) {
    w.object(JsonWriter::kInline).member("name", s.name);
    w.member("base_us", s.base_us).member("current_us", s.cur_us);
    w.member("delta_us", s.delta_us).end();
  }
  w.end().key("kernels").array();
  for (const KernelDelta& k : a.kernels) {
    w.object(JsonWriter::kInline).member("key", k.key);
    w.member("phase", k.phase).member("base_us", k.base_us);
    w.member("current_us", k.cur_us).member("delta_us", k.delta_us).end();
  }
  w.end().key("costmodel_residual_p95_pct").object(JsonWriter::kInline);
  w.member("base", a.base_residual_p95_pct);
  w.member("current", a.cur_residual_p95_pct);
  w.end().end().flush(os);
}

LedgerData perturb_largest_kernel(const LedgerData& base) {
  LedgerData p = base;
  // Scale the largest fwd/bwd class by 1.5x; the extra time flows into
  // that class's phase total and into end_to_end, so the identity holds
  // on the perturbed artifact by construction.
  auto largest = p.kernels.end();
  for (auto it = p.kernels.begin(); it != p.kernels.end(); ++it) {
    if (it->second.phase != "fwd" && it->second.phase != "bwd") continue;
    if (largest == p.kernels.end() ||
        it->second.total_us > largest->second.total_us)
      largest = it;
  }
  if (largest == p.kernels.end()) return p;
  const double extra = 0.5 * largest->second.total_us;
  largest->second.total_us += extra;
  if (largest->second.phase == "fwd")
    p.fwp_us += extra;
  else
    p.bwp_us += extra;
  p.end_to_end_us += extra;
  return p;
}

bool run_self_test(const LedgerData& base, std::ostream& os,
                   double tol_rel) {
  bool ok = true;
  auto check = [&](bool cond, const std::string& what) {
    os << (cond ? "  PASS " : "  FAIL ") << what << "\n";
    ok = ok && cond;
  };

  os << "gt_explain self-test (" << base.batches << " batches, "
     << base.kernels.size() << " kernel classes)\n";

  // 1. Identical pair: everything must cancel to (numerically) zero.
  const Attribution same = attribute(base, base);
  const double eps = 1e-9 * std::max(1.0, same.base_e2e_us);
  check(std::abs(same.delta_e2e_us) <= eps, "identical pair: e2e delta ~ 0");
  check(std::abs(same.stage_delta_sum_us) <= eps,
        "identical pair: stage sum ~ 0");

  // 2. Identity on the artifact itself: the stored totals must satisfy
  // e2e = sum(stages) + fwp + bwp - hidden, with sum(stages) = makespan.
  double stages = 0.0;
  for (double s : base.stage_us) stages += s;
  const double identity =
      stages + base.fwp_us + base.bwp_us - base.overlap_hidden_us;
  check(std::abs(identity - base.end_to_end_us) <=
            tol_rel * std::max(1.0, base.end_to_end_us),
        "artifact totals satisfy the attribution identity");
  check(std::abs(stages - base.makespan_us) <=
            tol_rel * std::max(1.0, base.makespan_us),
        "artifact stage totals sum to the preprocessing makespan");

  // 3. Perturbed pair: the scaled class must rank first and the stage sum
  // must equal the measured e2e delta within tolerance.
  const LedgerData perturbed = perturb_largest_kernel(base);
  if (perturbed.end_to_end_us == base.end_to_end_us) {
    check(false, "fixture has a fwd/bwd kernel class to perturb");
    return ok;
  }
  const Attribution diff = attribute(base, perturbed);
  const double expect =
      perturbed.per_batch(perturbed.end_to_end_us) -
      base.per_batch(base.end_to_end_us);
  check(diff.delta_e2e_us > 0.0, "perturbed pair: regression detected");
  check(std::abs(diff.stage_delta_sum_us - diff.delta_e2e_us) <=
            tol_rel * std::max(std::abs(diff.delta_e2e_us), 1e-9),
        "perturbed pair: stage deltas sum to e2e delta (within 1%)");
  check(std::abs(diff.kernel_delta_sum_us - expect) <=
            tol_rel * std::max(std::abs(expect), 1e-9),
        "perturbed pair: kernel deltas account for the regression");
  check(!diff.kernels.empty() && diff.kernels.front().delta_us > 0.0,
        "perturbed pair: top-ranked class is the injected regression");

  os << (ok ? "self-test PASSED\n" : "self-test FAILED\n");
  return ok;
}

int run_gt_explain(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err) {
  const auto usage = [&](std::ostream& os) {
    os << "usage: gt_explain [--top=N] [--json] <baseline-kernels.json> "
          "<current-kernels.json>\n"
          "       gt_explain --self-test <kernels.json>\n"
          "\n"
          "Attributes the end-to-end latency delta between two runs to\n"
          "pipeline stages and kernel classes using KernelLedger artifacts\n"
          "(GT_KERNEL_LEDGER_OUT / --kernel-ledger-out). Exit 0 on a\n"
          "consistent analysis, 1 on self-test failure or a violated\n"
          "sums-to-total invariant, 2 on usage/IO errors.\n";
  };

  bool json = false, self_test = false, help = false;
  std::size_t top_n = 10;
  std::string base_path, cur_path;
  try {
    gt::parse_options(
        {gt::text("baseline", &base_path), gt::text("current", &cur_path),
         gt::flag("--json", &json), gt::flag("--self-test", &self_test),
         gt::count("--top", &top_n, "kernel class count", 1),
         gt::flag("--help", &help), gt::flag("-h", &help)},
        args);
  } catch (const std::invalid_argument& e) {
    err << "gt_explain: " << e.what() << "\n";
    return 2;
  }
  if (help) {
    usage(out);
    return 0;
  }

  if (self_test) {
    if (base_path.empty() || !cur_path.empty()) {
      err << "gt_explain: --self-test takes exactly one kernels.json\n";
      usage(err);
      return 2;
    }
    LedgerData base;
    std::string load_err;
    if (!LedgerData::load(base_path, &base, &load_err)) {
      err << "gt_explain: " << load_err << "\n";
      return 2;
    }
    return run_self_test(base, out) ? 0 : 1;
  }

  if (cur_path.empty()) {
    err << "gt_explain: expected exactly two kernels.json paths\n";
    usage(err);
    return 2;
  }
  LedgerData base, cur;
  std::string load_err;
  if (!LedgerData::load(base_path, &base, &load_err) ||
      !LedgerData::load(cur_path, &cur, &load_err)) {
    err << "gt_explain: " << load_err << "\n";
    return 2;
  }
  const Attribution a = attribute(base, cur);
  if (json)
    write_json(a, out);
  else
    write_text(a, out, top_n);
  // The invariant is structural; a violation means a malformed or
  // hand-edited artifact, which the caller should not trust.
  if (std::abs(a.stage_delta_sum_us - a.delta_e2e_us) >
      0.01 * std::max(std::abs(a.delta_e2e_us), 1e-9)) {
    err << "gt_explain: stage deltas do not sum to the e2e delta — "
           "artifact totals are inconsistent\n";
    return 1;
  }
  return 0;
}

}  // namespace gt::obs::attrib
