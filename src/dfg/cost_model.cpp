#include "dfg/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "dfg/least_squares.hpp"
#include "gpusim/interconnect.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace gt::dfg {

const char* to_string(KernelOrder order) {
  return order == KernelOrder::kAggregationFirst ? "aggregation-first"
                                                 : "combination-first";
}

std::array<double, DkpCostModel::kFeatures> DkpCostModel::features(
    const LayerDims& d, const PlacementCase& c) {
  const auto with_case = [](double mem,
                            double macs) -> std::array<double, kFeatures> {
    return {1.0, mem, macs};
  };
  const double src = static_cast<double>(d.n_src);
  const double dst = static_cast<double>(d.n_dst);
  const double e = static_cast<double>(d.n_edges);
  const double f = static_cast<double>(d.n_feat);
  const double h = static_cast<double>(d.n_hidden);

  // NeighborApply (edge weighting) always runs in the original F-wide
  // space and its gradient passes re-read src/dst rows per edge.
  const double weighting_mem =
      c.edge_weighted ? (c.backward ? 3.0 * e * f : 2.0 * e * f) : 0.0;
  double mem = 0.0, macs = 0.0;
  if (!c.backward) {
    if (c.order == KernelOrder::kAggregationFirst) {
      // Pull reads F-wide source rows per edge and writes dst rows; the
      // fused MatMul+bias reads those and writes H-wide outputs.
      mem = e * f + dst * (2.0 * f + h);
      macs = dst * f * h;
    } else {
      // MatMul over all src rows, Pull over H-wide rows, bias on dst.
      mem = src * (f + h) + e * h + dst * 2.0 * h;
      macs = src * f * h;
    }
    return with_case(mem + weighting_mem, macs);
  }
  if (c.order == KernelOrder::kAggregationFirst) {
    if (c.first_layer) {
      // Only dW = A^T dZ and db run: dst-sized tensors, no traversal.
      mem = dst * (f + h) + f * h;
      macs = dst * f * h;
      return with_case(mem, macs);
    }
    // relu/matmul backward on dst rows, then the F-wide edge scatter.
    mem = dst * (f + 2.0 * h) + e * f + src * f + f * h;
    macs = 2.0 * dst * f * h;
    return with_case(mem + weighting_mem, macs);
  }
  // Combination-first backward: bias/relu grad on dst, pull-backward over
  // edges at H width producing dT on src rows, then the matmul backward.
  // dW always needs the traversal; dX (src*f*h MACs more) only when the
  // layer is not first.
  mem = dst * 2.0 * h + e * h + src * (h + f) + f * h;
  macs = (c.first_layer ? 1.0 : 2.0) * src * f * h;
  return with_case(mem + weighting_mem, macs);
}

void DkpCostModel::record(const LayerDims& dims, const PlacementCase& c,
                          double latency_us) {
  // Once fitted, every new sample doubles as a predicted-vs-actual probe
  // (the paper's 12.5%-error claim, continuously monitored in production).
  if (fitted_ && latency_us > 0.0) {
    const double pred = predict(dims, c);
    residuals_.push_back({pred, latency_us});
    obs::metrics()
        .histogram("dkp.predict_rel_error_pct",
                   {1, 2, 5, 10, 20, 30, 50, 75, 100, 200})
        .observe(100.0 * std::abs(pred - latency_us) / latency_us);
  }
  obs::metrics().counter("dkp.samples_recorded").add(1);
  xs_.push_back(features(dims, c));
  ys_.push_back(latency_us);
}

void DkpCostModel::fit() {
  if (xs_.empty()) return;
  // Relative least squares: scale each sample's features and target by
  // 1/latency, so minimizing ||A c - y|| minimizes sum((pred/y - 1)^2).
  std::vector<std::vector<double>> a;
  std::vector<double> y;
  a.reserve(xs_.size());
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    if (ys_[i] <= 0.0) continue;
    std::vector<double> row(xs_[i].begin(), xs_[i].end());
    for (double& v : row) v /= ys_[i];
    a.push_back(std::move(row));
    y.push_back(1.0);
  }
  if (a.empty()) return;
  const std::vector<double> c = least_squares(a, y);
  for (std::size_t k = 0; k < kFeatures; ++k) coeff_[k] = c[k];
  // A fit that learned a non-positive unit cost is extrapolating from too
  // few placements; fall back to the analytic defaults for that term.
  if (coeff_[1] <= 0.0) coeff_[1] = 4.0 / 9.36e3;
  if (coeff_[2] <= 0.0) coeff_[2] = 2.0 / 3.56e6;
  fitted_ = true;
  obs::metrics().counter("dkp.fits").add(1);
  obs::metrics().gauge("dkp.fit_mean_rel_error").set(mean_relative_error());
}

double DkpCostModel::predict(const LayerDims& dims,
                             const PlacementCase& c) const {
  const auto x = features(dims, c);
  if (fitted_) {
    double t = 0.0;
    for (std::size_t k = 0; k < kFeatures; ++k) t += coeff_[k] * x[k];
    return std::max(t, 0.0);
  }
  // Analytic defaults mirroring gpusim::CostParams: 4 bytes per element at
  // the scaled DRAM bandwidth, 2 FLOPs per MAC at the scaled *dense*
  // throughput (the MACs counted here are all MLP work).
  constexpr double kMemUs = 4.0 / 9.36e3;
  constexpr double kMacUs = 2.0 / 3.56e6;
  return x[1] * kMemUs + x[2] * kMacUs;
}

KernelOrder DkpCostModel::decide(const LayerDims& dims, bool backward,
                                 bool first_layer, bool edge_weighted) const {
  const double t_agg = predict(
      dims, PlacementCase{KernelOrder::kAggregationFirst, backward,
                          first_layer, edge_weighted});
  const double t_comb = predict(
      dims, PlacementCase{KernelOrder::kCombinationFirst, backward,
                          first_layer, edge_weighted});
  return t_agg <= t_comb ? KernelOrder::kAggregationFirst
                         : KernelOrder::kCombinationFirst;
}

KernelOrder DkpCostModel::decide_training(const LayerDims& dims,
                                          bool first_layer,
                                          bool edge_weighted) const {
  const auto total = [&](KernelOrder order) {
    return predict(dims, PlacementCase{order, false, first_layer,
                                       edge_weighted}) +
           predict(dims,
                   PlacementCase{order, true, first_layer, edge_weighted});
  };
  // The rearrangement is conditional (paper SIV-A): deviate from the
  // default placement only when the predicted win clears the model's own
  // error margin, so borderline mispredictions cannot regress training.
  constexpr double kMargin = 0.9;
  return total(KernelOrder::kCombinationFirst) <
                 kMargin * total(KernelOrder::kAggregationFirst)
             ? KernelOrder::kCombinationFirst
             : KernelOrder::kAggregationFirst;
}

double ResidualSample::rel_error_pct() const noexcept {
  if (measured_us <= 0.0) return 0.0;
  return 100.0 * std::abs(predicted_us - measured_us) / measured_us;
}

ResidualSummary DkpCostModel::residual_summary() const {
  ResidualSummary s;
  if (residuals_.empty()) return s;
  std::vector<double> errs;
  errs.reserve(residuals_.size());
  double total = 0.0;
  for (const ResidualSample& r : residuals_) {
    errs.push_back(r.rel_error_pct());
    total += errs.back();
  }
  std::sort(errs.begin(), errs.end());
  s.samples = errs.size();
  s.p50_pct = nearest_rank(errs, 0.50);
  s.p95_pct = nearest_rank(errs, 0.95);
  s.mean_pct = total / static_cast<double>(errs.size());
  return s;
}

void DkpCostModel::record_collective(std::size_t steps,
                                     std::size_t bytes_on_wire, double us) {
  coll_xs_.push_back({static_cast<double>(steps),
                      static_cast<double>(bytes_on_wire)});
  coll_ys_.push_back(us);
}

void DkpCostModel::fit_collective() {
  if (coll_xs_.empty()) return;
  // Relative least squares, matching fit(): every collective — latency-
  // bound 2-device syncs and bandwidth-bound 8-device halo gathers alike —
  // contributes equally to the fit.
  std::vector<std::vector<double>> a;
  std::vector<double> y;
  a.reserve(coll_xs_.size());
  for (std::size_t i = 0; i < coll_xs_.size(); ++i) {
    if (coll_ys_[i] <= 0.0) continue;
    a.push_back({coll_xs_[i][0] / coll_ys_[i], coll_xs_[i][1] / coll_ys_[i]});
    y.push_back(1.0);
  }
  if (a.empty()) return;
  const std::vector<double> c = least_squares(a, y);
  coll_coeff_ = {c[0], c[1]};
  // Same guard as fit(): a non-positive unit cost means the samples span
  // too little of the (steps, bytes) plane; keep the analytic default.
  const gpusim::LinkParams link;
  if (coll_coeff_[0] <= 0.0) coll_coeff_[0] = link.latency_us;
  if (coll_coeff_[1] <= 0.0) coll_coeff_[1] = 1.0 / link.bw_bytes_per_us;
  coll_fitted_ = true;
  obs::metrics().counter("dkp.collective_fits").add(1);
}

double DkpCostModel::predict_collective(std::size_t steps,
                                        std::size_t bytes_on_wire) const {
  if (coll_fitted_)
    return coll_coeff_[0] * static_cast<double>(steps) +
           coll_coeff_[1] * static_cast<double>(bytes_on_wire);
  const gpusim::LinkParams link;
  return link.latency_us * static_cast<double>(steps) +
         static_cast<double>(bytes_on_wire) / link.bw_bytes_per_us;
}

double DkpCostModel::predict_group(const LayerDims& dims,
                                   const PlacementCase& c,
                                   std::size_t devices, std::size_t steps,
                                   std::size_t bytes_on_wire) const {
  const double per_device =
      predict(dims, c) / static_cast<double>(devices == 0 ? 1 : devices);
  return per_device + predict_collective(steps, bytes_on_wire);
}

double DkpCostModel::mean_relative_error() const {
  if (!fitted_ || xs_.empty()) return 0.0;
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    double pred = 0.0;
    for (std::size_t k = 0; k < kFeatures; ++k)
      pred += coeff_[k] * xs_[i][k];
    if (ys_[i] <= 0.0) continue;
    total += std::abs(pred - ys_[i]) / ys_[i];
    ++n;
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

}  // namespace gt::dfg
