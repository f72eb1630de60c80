#include "kernels/napa.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "tensor/ops.hpp"

namespace gt::kernels::napa {

using gpusim::BlockCtx;
using gpusim::BlockSafety;
using gpusim::BufferId;
using gpusim::Device;
using gpusim::HostStorage;
using gpusim::KernelCategory;

// Every NAPA kernel is vertex-centric: block b owns output row b (or the
// edge range of destination b), so writes are disjoint and the kernels are
// declared BlockSafety::kParallel throughout.
//
// The Apply kernels hand their dense products to the tensor ops
// (tensor/ops.hpp), as the paper's Apply hands combination to the DL
// framework's GEMM: X·W (Apply.MatMul), dZ·W^T (Apply.MatMulGradX) and
// X^T·dZ (Apply.MatMulGradW). Their run_kernel block loops make only the
// modeled calls (loads, weight-row runs, flops, stores) that price the
// product; the product itself runs once after the launch, register-tiled
// on the compute pool. Outputs a product overwrites in full are allocated
// unfilled (HostStorage::kUninitialized).

gpusim::BufferId neighbor_apply(Device& dev, const DeviceCsr& g, BufferId x,
                                EdgeWeightMode gmode) {
  if (gmode == EdgeWeightMode::kNone)
    throw std::invalid_argument("NeighborApply requires an edge weight mode");
  const std::size_t feat = dev.cols(x);
  const std::size_t wcols = gmode == EdgeWeightMode::kDot ? 1 : feat;
  const BufferId out = dev.alloc_f32(g.n_edges, wcols, "napa.weights");
  dev.charge_alloc_overhead("napa.weights");

  auto xv = dev.f32(x);
  auto ov = dev.f32(out);
  auto rp = dev.u32(g.row_ptr);
  auto ci = dev.u32(g.col_idx);
  const std::size_t fb = feat * sizeof(float);

  dev.run_kernel("napa.NeighborApply", KernelCategory::kEdgeWeight, g.n_dst,
                 [&](BlockCtx& ctx) {
    const std::uint32_t d = static_cast<std::uint32_t>(ctx.block_id());
    ctx.global_read(2 * sizeof(std::uint32_t));  // row_ptr[d], row_ptr[d+1]
    // Destination embedding is loaded once and reused for every edge.
    ctx.load(x, d, fb);
    const float* xd = &xv[static_cast<std::size_t>(d) * feat];
    for (std::uint32_t e = rp[d]; e < rp[d + 1]; ++e) {
      const std::uint32_t s = ci[e];
      ctx.global_read(sizeof(std::uint32_t));  // col_idx[e]
      ctx.load(x, s, fb);
      const float* xs = &xv[static_cast<std::size_t>(s) * feat];
      float* we = &ov[static_cast<std::size_t>(e) * wcols];
      if (gmode == EdgeWeightMode::kDot) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < feat; ++c) acc += xs[c] * xd[c];
        we[0] = acc * dot_weight_scale(feat);
        ctx.flops(2 * feat);
        ctx.store(out, e, sizeof(float));
      } else {
        for (std::size_t c = 0; c < feat; ++c) we[c] = xs[c] * xd[c];
        ctx.flops(feat);
        ctx.store(out, e, fb);
      }
    }
  }, BlockSafety::kParallel);
  return out;
}

gpusim::BufferId pull(Device& dev, const DeviceCsr& g, BufferId x,
                      BufferId weights, AggMode f, EdgeWeightMode gmode) {
  if ((gmode == EdgeWeightMode::kNone) !=
      (weights == gpusim::kInvalidBuffer))
    throw std::invalid_argument("pull: weights iff weighted mode");
  const std::size_t feat = dev.cols(x);
  const BufferId out = dev.alloc_f32(g.n_dst, feat, "napa.aggr");
  dev.charge_alloc_overhead("napa.aggr");

  auto xv = dev.f32(x);
  auto ov = dev.f32(out);
  auto rp = dev.u32(g.row_ptr);
  auto ci = dev.u32(g.col_idx);
  std::span<const float> wv;
  std::size_t wcols = 0;
  if (gmode != EdgeWeightMode::kNone) {
    wv = dev.f32(weights);
    wcols = dev.cols(weights);
  }
  const std::size_t fb = feat * sizeof(float);

  dev.run_kernel("napa.Pull", KernelCategory::kAggregation, g.n_dst,
                 [&](BlockCtx& ctx) {
    const std::uint32_t d = static_cast<std::uint32_t>(ctx.block_id());
    ctx.global_read(2 * sizeof(std::uint32_t));
    float* od = &ov[static_cast<std::size_t>(d) * feat];
    const std::uint32_t begin = rp[d], end = rp[d + 1];
    bool first = true;
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t s = ci[e];
      ctx.global_read(sizeof(std::uint32_t));
      ctx.load(x, s, fb);
      if (gmode != EdgeWeightMode::kNone)
        ctx.load(weights, e, wcols * sizeof(float));
      const float* xs = &xv[static_cast<std::size_t>(s) * feat];
      for (std::size_t c = 0; c < feat; ++c) {
        float h = xs[c];
        if (gmode == EdgeWeightMode::kDot)
          h *= wv[static_cast<std::size_t>(e) * wcols];
        else if (gmode == EdgeWeightMode::kElemProduct)
          h *= wv[static_cast<std::size_t>(e) * wcols + c];
        if (f == AggMode::kMax) {
          od[c] = first ? h : std::max(od[c], h);
        } else {
          od[c] += h;
        }
      }
      first = false;
      ctx.flops((gmode == EdgeWeightMode::kNone ? 1 : 2) * feat);
    }
    if (f == AggMode::kMean && end > begin) {
      const float inv = 1.0f / static_cast<float>(end - begin);
      for (std::size_t c = 0; c < feat; ++c) od[c] *= inv;
      ctx.flops(feat);
    }
    // The accumulator lived in registers; one store materializes the row.
    ctx.store(out, d, fb);
  }, BlockSafety::kParallel);
  return out;
}

gpusim::BufferId apply_dense(Device& dev, BufferId x, BufferId w, BufferId b,
                             bool relu, BufferId* pre_act) {
  const std::size_t rows = dev.rows(x);
  const std::size_t feat = dev.cols(x);
  const std::size_t hidden = dev.cols(w);
  if (dev.rows(w) != feat)
    throw std::invalid_argument("apply_dense: W shape mismatch");
  const BufferId out =
      dev.alloc_f32(rows, hidden, "apply.out", HostStorage::kUninitialized);
  dev.charge_alloc_overhead("apply.out");
  BufferId pre = gpusim::kInvalidBuffer;
  if (pre_act != nullptr) {
    pre = dev.alloc_f32(rows, hidden, "apply.pre_act",
                        HostStorage::kUninitialized);
    dev.charge_alloc_overhead("apply.pre_act");
    *pre_act = pre;
  }
  const std::size_t hb = hidden * sizeof(float);

  dev.run_kernel("Apply.MatMul", KernelCategory::kCombination, rows,
                 [&](BlockCtx& ctx) {
    const std::uint32_t r = static_cast<std::uint32_t>(ctx.block_id());
    ctx.load(x, r, feat * sizeof(float));
    // Weight-matrix rows stream through the SM cache; blocks sharing an SM
    // reuse them.
    ctx.load_rows(w, 0, static_cast<std::uint32_t>(feat), hb);
    ctx.load(b, 0, hb);
    ctx.flops(2ull * feat * hidden + 2ull * hidden);
    if (pre != gpusim::kInvalidBuffer) ctx.store(pre, r, hb);
    ctx.store(out, r, hb);
  }, BlockSafety::kParallel);

  // out = act(X W + b): the product, then bias, pre-activation copy and
  // ReLU element by element.
  const MatrixView ov = device_view(dev, out);
  matmul_into(device_view(dev, x), device_view(dev, w), ov);
  const auto bv = dev.f32(b);
  float* pv = pre != gpusim::kInvalidBuffer ? dev.f32(pre).data() : nullptr;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto orow = ov.row(r);
    for (std::size_t c = 0; c < hidden; ++c) {
      orow[c] += bv[c];
      if (pv != nullptr) pv[r * hidden + c] = orow[c];
      if (relu && orow[c] < 0.0f) orow[c] = 0.0f;
    }
  }
  return out;
}

DenseGrads apply_dense_backward(Device& dev, BufferId x, BufferId w,
                                BufferId pre_act, BufferId dy, bool relu,
                                bool want_dx) {
  const std::size_t rows = dev.rows(x);
  const std::size_t feat = dev.cols(x);
  const std::size_t hidden = dev.cols(w);
  DenseGrads grads;
  const BufferId dz =
      dev.alloc_f32(rows, hidden, "apply.dz", HostStorage::kUninitialized);
  grads.dw =
      dev.alloc_f32(feat, hidden, "apply.dw", HostStorage::kUninitialized);
  grads.db = dev.alloc_f32(1, hidden, "apply.db");
  dev.charge_alloc_overhead("apply.backward", 3);

  auto dyv = dev.f32(dy);
  auto dzv = dev.f32(dz);
  const std::size_t hb = hidden * sizeof(float);

  // dZ = act'(pre) (.) dY.
  if (relu) {
    auto pv = dev.f32(pre_act);
    dev.run_kernel("Apply.ReluGrad", KernelCategory::kCombination, rows,
                   [&](BlockCtx& ctx) {
      const std::uint32_t r = static_cast<std::uint32_t>(ctx.block_id());
      ctx.load(dy, r, hb);
      ctx.load(pre_act, r, hb);
      for (std::size_t c = 0; c < hidden; ++c) {
        const std::size_t i = static_cast<std::size_t>(r) * hidden + c;
        dzv[i] = pv[i] > 0.0f ? dyv[i] : 0.0f;
      }
      ctx.flops(hidden);
      ctx.store(dz, r, hb);
    }, BlockSafety::kParallel);
  } else {
    std::copy(dyv.begin(), dyv.end(), dzv.begin());
    dev.charge_kernel("Apply.IdentityGrad", KernelCategory::kCombination, 0,
                      2 * rows * hb);
  }

  // dX = dZ W^T (skipped for first-layer backward: only dW/db needed).
  if (want_dx) {
    grads.dx =
        dev.alloc_f32(rows, feat, "apply.dx", HostStorage::kUninitialized);
    dev.charge_alloc_overhead("apply.dx", 1);
    dev.run_kernel("Apply.MatMulGradX", KernelCategory::kCombination, rows,
                   [&](BlockCtx& ctx) {
      const std::uint32_t r = static_cast<std::uint32_t>(ctx.block_id());
      ctx.load(dz, r, hb);
      ctx.load_rows(w, 0, static_cast<std::uint32_t>(feat), hb);
      ctx.flops(2ull * feat * hidden);
      ctx.store(grads.dx, r, feat * sizeof(float));
    }, BlockSafety::kParallel);
    matmul_a_bt_into(device_view(dev, dz), device_view(dev, w),
                     device_view(dev, grads.dx));
  }

  // dW = X^T dZ and db = colsum(dZ): bandwidth-dominated reductions.
  matmul_at_b_into(device_view(dev, x), device_view(dev, dz),
                   device_view(dev, grads.dw));
  col_sum_into(device_view(dev, dz), device_view(dev, grads.db));
  dev.charge_kernel("Apply.MatMulGradW", KernelCategory::kCombination,
                    2ull * rows * feat * hidden + rows * hidden,
                    rows * (feat + hidden) * sizeof(float) +
                        feat * hidden * sizeof(float));
  dev.free(dz);
  return grads;
}

gpusim::BufferId apply_matmul(Device& dev, BufferId x, BufferId w) {
  const std::size_t rows = dev.rows(x);
  const std::size_t feat = dev.cols(x);
  const std::size_t hidden = dev.cols(w);
  if (dev.rows(w) != feat)
    throw std::invalid_argument("apply_matmul: W shape mismatch");
  const BufferId out =
      dev.alloc_f32(rows, hidden, "matmul.out", HostStorage::kUninitialized);
  dev.charge_alloc_overhead("matmul.out");
  const std::size_t hb = hidden * sizeof(float);

  dev.run_kernel("Apply.MatMul", KernelCategory::kCombination, rows,
                 [&](BlockCtx& ctx) {
    const std::uint32_t r = static_cast<std::uint32_t>(ctx.block_id());
    ctx.load(x, r, feat * sizeof(float));
    ctx.load_rows(w, 0, static_cast<std::uint32_t>(feat), hb);
    ctx.flops(2ull * feat * hidden);
    ctx.store(out, r, hb);
  }, BlockSafety::kParallel);
  matmul_into(device_view(dev, x), device_view(dev, w),
              device_view(dev, out));
  return out;
}

MatmulGrads apply_matmul_backward(Device& dev, BufferId x, BufferId w,
                                  BufferId dy, bool want_dx) {
  const std::size_t rows = dev.rows(x);
  const std::size_t feat = dev.cols(x);
  const std::size_t hidden = dev.cols(w);
  MatmulGrads grads;
  grads.dw =
      dev.alloc_f32(feat, hidden, "matmul.dw", HostStorage::kUninitialized);
  dev.charge_alloc_overhead("matmul.backward", 1);
  const std::size_t hb = hidden * sizeof(float);

  if (want_dx) {
    grads.dx =
        dev.alloc_f32(rows, feat, "matmul.dx", HostStorage::kUninitialized);
    dev.charge_alloc_overhead("matmul.dx", 1);
    dev.run_kernel("Apply.MatMulGradX", KernelCategory::kCombination, rows,
                   [&](BlockCtx& ctx) {
      const std::uint32_t r = static_cast<std::uint32_t>(ctx.block_id());
      ctx.load(dy, r, hb);
      ctx.load_rows(w, 0, static_cast<std::uint32_t>(feat), hb);
      ctx.flops(2ull * feat * hidden);
      ctx.store(grads.dx, r, feat * sizeof(float));
    }, BlockSafety::kParallel);
    matmul_a_bt_into(device_view(dev, dy), device_view(dev, w),
                     device_view(dev, grads.dx));
  }

  matmul_at_b_into(device_view(dev, x), device_view(dev, dy),
                   device_view(dev, grads.dw));
  dev.charge_kernel("Apply.MatMulGradW", KernelCategory::kCombination,
                    2ull * rows * feat * hidden,
                    rows * (feat + hidden) * sizeof(float) +
                        feat * hidden * sizeof(float));
  return grads;
}

gpusim::BufferId apply_bias_act(Device& dev, BufferId x, BufferId b,
                                bool relu, BufferId* pre_act) {
  const std::size_t rows = dev.rows(x);
  const std::size_t hidden = dev.cols(x);
  if (dev.cols(b) != hidden)
    throw std::invalid_argument("apply_bias_act: bias shape mismatch");
  const BufferId out = dev.alloc_f32(rows, hidden, "bias_act.out");
  dev.charge_alloc_overhead("bias_act.out");
  BufferId pre = gpusim::kInvalidBuffer;
  if (pre_act != nullptr) {
    pre = dev.alloc_f32(rows, hidden, "bias_act.pre");
    dev.charge_alloc_overhead("bias_act.pre");
    *pre_act = pre;
  }

  auto xv = dev.f32(x);
  auto bv = dev.f32(b);
  auto ov = dev.f32(out);
  std::span<float> pv;
  if (pre != gpusim::kInvalidBuffer) pv = dev.f32(pre);
  const std::size_t hb = hidden * sizeof(float);

  dev.run_kernel("Apply.BiasAct", KernelCategory::kCombination, rows,
                 [&](BlockCtx& ctx) {
    const std::uint32_t r = static_cast<std::uint32_t>(ctx.block_id());
    ctx.load(x, r, hb);
    ctx.load(b, 0, hb);
    for (std::size_t c = 0; c < hidden; ++c) {
      const std::size_t i = static_cast<std::size_t>(r) * hidden + c;
      float v = xv[i] + bv[c];
      if (pre != gpusim::kInvalidBuffer) pv[i] = v;
      if (relu && v < 0.0f) v = 0.0f;
      ov[i] = v;
    }
    ctx.flops(2 * hidden);
    if (pre != gpusim::kInvalidBuffer) ctx.store(pre, r, hb);
    ctx.store(out, r, hb);
  }, BlockSafety::kParallel);
  return out;
}

BiasActGrads apply_bias_act_backward(Device& dev, BufferId pre_act,
                                     BufferId dy, bool relu) {
  const std::size_t rows = dev.rows(dy);
  const std::size_t hidden = dev.cols(dy);
  BiasActGrads grads;
  grads.dx = dev.alloc_f32(rows, hidden, "bias_act.dx");
  grads.db = dev.alloc_f32(1, hidden, "bias_act.db");
  dev.charge_alloc_overhead("bias_act.backward", 2);

  auto dyv = dev.f32(dy);
  auto dxv = dev.f32(grads.dx);
  auto dbv = dev.f32(grads.db);
  std::span<const float> pv;
  if (relu) pv = dev.f32(pre_act);
  const std::size_t hb = hidden * sizeof(float);

  dev.run_kernel("Apply.BiasActGrad", KernelCategory::kCombination, rows,
                 [&](BlockCtx& ctx) {
    const std::uint32_t r = static_cast<std::uint32_t>(ctx.block_id());
    ctx.load(dy, r, hb);
    if (relu) ctx.load(pre_act, r, hb);
    for (std::size_t c = 0; c < hidden; ++c) {
      const std::size_t i = static_cast<std::size_t>(r) * hidden + c;
      dxv[i] = (!relu || pv[i] > 0.0f) ? dyv[i] : 0.0f;
    }
    ctx.flops(hidden);
    ctx.store(grads.dx, r, hb);
  }, BlockSafety::kParallel);
  // db reduction: bandwidth-dominated.
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < hidden; ++c)
      dbv[c] += dxv[r * hidden + c];
  dev.charge_kernel("Apply.BiasGrad", KernelCategory::kCombination,
                    rows * hidden, rows * hb + hb);
  return grads;
}

gpusim::BufferId pull_backward_h(Device& dev, const DeviceCsr& csr,
                                 const DeviceCsc& csc, BufferId weights,
                                 BufferId da, AggMode f) {
  if (f == AggMode::kMax)
    throw std::invalid_argument("pull_backward_h: max unsupported");
  const std::size_t hidden = dev.cols(da);
  const BufferId dt = dev.alloc_f32(csc.n_vertices, hidden, "napa.dt");
  dev.charge_alloc_overhead("napa.dt");

  auto dav = dev.f32(da);
  auto dtv = dev.f32(dt);
  auto cp = dev.u32(csc.col_ptr);
  auto ri = dev.u32(csc.row_idx);
  auto ei = dev.u32(csc.edge_id);
  auto rp = dev.u32(csr.row_ptr);
  std::span<const float> wv;
  if (weights != gpusim::kInvalidBuffer) wv = dev.f32(weights);
  const std::size_t hb = hidden * sizeof(float);

  dev.run_kernel("napa.PullBackwardH", KernelCategory::kAggregation,
                 csc.n_vertices, [&](BlockCtx& ctx) {
    const std::uint32_t s = static_cast<std::uint32_t>(ctx.block_id());
    ctx.global_read(2 * sizeof(std::uint32_t));
    float* dts = &dtv[static_cast<std::size_t>(s) * hidden];
    bool touched = false;
    for (std::uint32_t k = cp[s]; k < cp[s + 1]; ++k) {
      const std::uint32_t d = ri[k];
      ctx.global_read(4 * sizeof(std::uint32_t));
      ctx.load(da, d, hb);
      const float coeff = f == AggMode::kMean
                              ? 1.0f / static_cast<float>(rp[d + 1] - rp[d])
                              : 1.0f;
      float scalew = coeff;
      if (!wv.empty()) {
        ctx.load(weights, ei[k], sizeof(float));
        scalew *= wv[ei[k]];
      }
      const float* dad = &dav[static_cast<std::size_t>(d) * hidden];
      for (std::size_t c = 0; c < hidden; ++c) dts[c] += scalew * dad[c];
      ctx.flops(2 * hidden);
      touched = true;
    }
    if (touched) ctx.store(dt, s, hb);
  }, BlockSafety::kParallel);
  return dt;
}

void edge_weight_backward_cf(Device& dev, const DeviceCsr& csr,
                             const DeviceCsc& csc, BufferId x, BufferId t,
                             BufferId da, BufferId dx, AggMode f) {
  if (f == AggMode::kMax)
    throw std::invalid_argument("edge_weight_backward_cf: max unsupported");
  const std::size_t feat = dev.cols(x);
  const std::size_t hidden = dev.cols(da);
  auto xv = dev.f32(x);
  auto tv = dev.f32(t);
  auto dav = dev.f32(da);
  auto dxv = dev.f32(dx);
  auto rp = dev.u32(csr.row_ptr);
  auto ci = dev.u32(csr.col_idx);
  auto cp = dev.u32(csc.col_ptr);
  auto ri = dev.u32(csc.row_idx);
  const std::size_t fb = feat * sizeof(float);
  const std::size_t hb = hidden * sizeof(float);

  auto dwe_of = [&](std::uint32_t s, std::uint32_t d) {
    const float coeff = f == AggMode::kMean
                            ? 1.0f / static_cast<float>(rp[d + 1] - rp[d])
                            : 1.0f;
    const float* dad = &dav[static_cast<std::size_t>(d) * hidden];
    const float* ts = &tv[static_cast<std::size_t>(s) * hidden];
    float dwe = 0.0f;
    for (std::size_t c = 0; c < hidden; ++c) dwe += dad[c] * ts[c];
    // Weights were computed in the original F-wide space: dw/dx carries
    // that space's scale.
    return coeff * dwe * dot_weight_scale(feat);
  };

  // CSC pass: src-side terms dX[s] += dw_e * x[d].
  dev.run_kernel("napa.EdgeWeightBackwardCF.src", KernelCategory::kEdgeWeight,
                 csc.n_vertices, [&](BlockCtx& ctx) {
    const std::uint32_t s = static_cast<std::uint32_t>(ctx.block_id());
    ctx.global_read(2 * sizeof(std::uint32_t));
    if (cp[s] == cp[s + 1]) return;
    ctx.load(t, s, hb);
    ctx.load(dx, s, fb);
    float* dxs = &dxv[static_cast<std::size_t>(s) * feat];
    for (std::uint32_t k = cp[s]; k < cp[s + 1]; ++k) {
      const std::uint32_t d = ri[k];
      ctx.global_read(3 * sizeof(std::uint32_t));
      ctx.load(da, d, hb);
      ctx.load(x, d, fb);
      const float dwe = dwe_of(s, d);
      const float* xd = &xv[static_cast<std::size_t>(d) * feat];
      for (std::size_t c = 0; c < feat; ++c) dxs[c] += dwe * xd[c];
      ctx.flops(2 * hidden + 2 * feat);
    }
    ctx.store(dx, s, fb);
  }, BlockSafety::kParallel);

  // CSR pass: dst-side terms dX[d] += dw_e * x[s].
  dev.run_kernel("napa.EdgeWeightBackwardCF.dst", KernelCategory::kEdgeWeight,
                 csr.n_dst, [&](BlockCtx& ctx) {
    const std::uint32_t d = static_cast<std::uint32_t>(ctx.block_id());
    ctx.global_read(2 * sizeof(std::uint32_t));
    if (rp[d] == rp[d + 1]) return;
    ctx.load(da, d, hb);
    ctx.load(dx, d, fb);
    float* dxd = &dxv[static_cast<std::size_t>(d) * feat];
    for (std::uint32_t e = rp[d]; e < rp[d + 1]; ++e) {
      const std::uint32_t s = ci[e];
      ctx.global_read(sizeof(std::uint32_t));
      ctx.load(t, s, hb);
      ctx.load(x, s, fb);
      const float dwe = dwe_of(s, d);
      const float* xs = &xv[static_cast<std::size_t>(s) * feat];
      for (std::size_t c = 0; c < feat; ++c) dxd[c] += dwe * xs[c];
      ctx.flops(2 * hidden + 2 * feat);
    }
    ctx.store(dx, d, fb);
  }, BlockSafety::kParallel);
}

gpusim::BufferId pull_backward(Device& dev, const DeviceCsr& csr,
                               const DeviceCsc& csc, BufferId x,
                               BufferId weights, BufferId da, AggMode f,
                               EdgeWeightMode gmode) {
  if (f == AggMode::kMax)
    throw std::invalid_argument("pull_backward: max unsupported");
  const std::size_t feat = dev.cols(x);
  const BufferId dx = dev.alloc_f32(csc.n_vertices, feat, "napa.dx");
  dev.charge_alloc_overhead("napa.dx");

  auto xv = dev.f32(x);
  auto dav = dev.f32(da);
  auto dxv = dev.f32(dx);
  auto cp = dev.u32(csc.col_ptr);
  auto ri = dev.u32(csc.row_idx);
  auto ei = dev.u32(csc.edge_id);
  auto rp = dev.u32(csr.row_ptr);
  std::span<const float> wv;
  std::size_t wcols = 0;
  if (gmode != EdgeWeightMode::kNone) {
    wv = dev.f32(weights);
    wcols = dev.cols(weights);
  }
  const std::size_t fb = feat * sizeof(float);

  dev.run_kernel("napa.PullBackward", KernelCategory::kAggregation,
                 csc.n_vertices, [&](BlockCtx& ctx) {
    const std::uint32_t s = static_cast<std::uint32_t>(ctx.block_id());
    ctx.global_read(2 * sizeof(std::uint32_t));
    float* dxs = &dxv[static_cast<std::size_t>(s) * feat];
    const float* xs = &xv[static_cast<std::size_t>(s) * feat];
    bool touched = false;
    if (gmode != EdgeWeightMode::kNone) ctx.load(x, s, fb);
    for (std::uint32_t k = cp[s]; k < cp[s + 1]; ++k) {
      const std::uint32_t d = ri[k];
      const std::uint32_t e = ei[k];
      ctx.global_read(2 * sizeof(std::uint32_t) +
                      2 * sizeof(std::uint32_t));  // row_idx, edge_id, deg
      ctx.load(da, d, fb);
      const float* dad = &dav[static_cast<std::size_t>(d) * feat];
      const float coeff = f == AggMode::kMean
                              ? 1.0f / static_cast<float>(rp[d + 1] - rp[d])
                              : 1.0f;
      switch (gmode) {
        case EdgeWeightMode::kNone:
          for (std::size_t c = 0; c < feat; ++c) dxs[c] += coeff * dad[c];
          ctx.flops(2 * feat);
          break;
        case EdgeWeightMode::kDot: {
          ctx.load(weights, e, sizeof(float));
          ctx.load(x, d, fb);
          const float we = wv[static_cast<std::size_t>(e) * wcols];
          const float* xd = &xv[static_cast<std::size_t>(d) * feat];
          float dwe = 0.0f;
          for (std::size_t c = 0; c < feat; ++c)
            dwe += coeff * dad[c] * xs[c];
          dwe *= dot_weight_scale(feat);
          for (std::size_t c = 0; c < feat; ++c)
            dxs[c] += coeff * we * dad[c] + dwe * xd[c];
          ctx.flops(6 * feat);
          break;
        }
        case EdgeWeightMode::kElemProduct: {
          ctx.load(weights, e, fb);
          ctx.load(x, d, fb);
          const float* we = &wv[static_cast<std::size_t>(e) * wcols];
          const float* xd = &xv[static_cast<std::size_t>(d) * feat];
          for (std::size_t c = 0; c < feat; ++c) {
            const float dh = coeff * dad[c];
            dxs[c] += we[c] * dh + dh * xs[c] * xd[c];
          }
          ctx.flops(6 * feat);
          break;
        }
      }
      touched = true;
    }
    if (touched) ctx.store(dx, s, fb);
  }, BlockSafety::kParallel);
  return dx;
}

void neighbor_apply_backward(Device& dev, const DeviceCsr& g, BufferId x,
                             BufferId da, BufferId dx, AggMode f,
                             EdgeWeightMode gmode) {
  if (gmode == EdgeWeightMode::kNone)
    throw std::invalid_argument(
        "neighbor_apply_backward: no dst terms for unweighted edges");
  if (f == AggMode::kMax)
    throw std::invalid_argument("neighbor_apply_backward: max unsupported");
  const std::size_t feat = dev.cols(x);
  auto xv = dev.f32(x);
  auto dav = dev.f32(da);
  auto dxv = dev.f32(dx);
  auto rp = dev.u32(g.row_ptr);
  auto ci = dev.u32(g.col_idx);
  const std::size_t fb = feat * sizeof(float);

  dev.run_kernel("napa.NeighborApplyBackward", KernelCategory::kEdgeWeight,
                 g.n_dst, [&](BlockCtx& ctx) {
    const std::uint32_t d = static_cast<std::uint32_t>(ctx.block_id());
    ctx.global_read(2 * sizeof(std::uint32_t));
    const std::uint32_t begin = rp[d], end = rp[d + 1];
    if (begin == end) return;
    const float coeff =
        f == AggMode::kMean ? 1.0f / static_cast<float>(end - begin) : 1.0f;
    ctx.load(da, d, fb);
    const float* dad = &dav[static_cast<std::size_t>(d) * feat];
    float* dxd = &dxv[static_cast<std::size_t>(d) * feat];
    ctx.load(dx, d, fb);  // read-modify-write of the dst gradient row
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t s = ci[e];
      ctx.global_read(sizeof(std::uint32_t));
      ctx.load(x, s, fb);
      const float* xs = &xv[static_cast<std::size_t>(s) * feat];
      if (gmode == EdgeWeightMode::kDot) {
        float dwe = 0.0f;
        for (std::size_t c = 0; c < feat; ++c) dwe += coeff * dad[c] * xs[c];
        dwe *= dot_weight_scale(feat);
        for (std::size_t c = 0; c < feat; ++c) dxd[c] += dwe * xs[c];
        ctx.flops(4 * feat);
      } else {
        for (std::size_t c = 0; c < feat; ++c)
          dxd[c] += coeff * dad[c] * xs[c] * xs[c];
        ctx.flops(4 * feat);
      }
    }
    ctx.store(dx, d, fb);
  }, BlockSafety::kParallel);
}

}  // namespace gt::kernels::napa
