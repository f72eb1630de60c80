// NAPA: the NeighborApply-Pull-and-Apply programming model (paper §IV-B).
//
// Pure vertex-centric (destination-centric), feature-wise scheduled GNN
// kernels over CSR subgraphs:
//  * NeighborApply — edge weighting g. One thread block per dst vertex; the
//    dst embedding is loaded once into that block's SM and reused for every
//    incident edge (no cache bloat), weights are written per edge.
//  * Pull — aggregation f with weighted sources h. One block per dst;
//    accumulation happens in registers and the output row is stored once.
//  * Apply — the combination MLP (dense). The paper delegates this to
//    TensorFlow primitives; here apply_dense is the equivalent kernel, and
//    the baselines share it (dense math is identical across frameworks).
//    Its products run in the tensor ops (tensor/ops.hpp); its block loop
//    only prices them.
//
// Backward kernels traverse CSC (prepared by preprocessing, never translated
// on-device): pull_backward produces source-side gradients,
// neighbor_apply_backward adds the destination-side edge-weight terms.
#pragma once

#include "kernels/common.hpp"

namespace gt::kernels::napa {

/// Edge weights in CSR edge order: [E,1] (kDot) or [E,F] (kElemProduct).
/// Must not be called with kNone.
gpusim::BufferId neighbor_apply(gpusim::Device& dev, const DeviceCsr& g,
                                gpusim::BufferId x, EdgeWeightMode gmode);

/// Aggregation: [n_dst, F]. `weights` is kInvalidBuffer iff gmode == kNone.
gpusim::BufferId pull(gpusim::Device& dev, const DeviceCsr& g,
                      gpusim::BufferId x, gpusim::BufferId weights,
                      AggMode f, EdgeWeightMode gmode);

/// Combination: act(x W + b) -> [rows(x), cols(w)]. If `pre_act` is
/// non-null, *pre_act receives a buffer holding x W + b (for ReLU backward).
gpusim::BufferId apply_dense(gpusim::Device& dev, gpusim::BufferId x,
                             gpusim::BufferId w, gpusim::BufferId b,
                             bool relu, gpusim::BufferId* pre_act = nullptr);

struct DenseGrads {
  gpusim::BufferId dx = gpusim::kInvalidBuffer;
  gpusim::BufferId dw = gpusim::kInvalidBuffer;
  gpusim::BufferId db = gpusim::kInvalidBuffer;
};

// ---- Unfused combination pieces (combination-first execution order) --------
// When dynamic kernel placement hoists the MatMul above Pull, the bias and
// activation stay *after* the aggregation, so the fused apply_dense cannot
// be used; these kernels split it.

/// y = x W (no bias, no activation).
gpusim::BufferId apply_matmul(gpusim::Device& dev, gpusim::BufferId x,
                              gpusim::BufferId w);

/// Backward of apply_matmul: dx = dy W^T, dw = x^T dy.
struct MatmulGrads {
  gpusim::BufferId dx = gpusim::kInvalidBuffer;
  gpusim::BufferId dw = gpusim::kInvalidBuffer;
};
MatmulGrads apply_matmul_backward(gpusim::Device& dev, gpusim::BufferId x,
                                  gpusim::BufferId w, gpusim::BufferId dy,
                                  bool want_dx = true);

/// y = act(x + b); *pre_act receives x + b when non-null.
gpusim::BufferId apply_bias_act(gpusim::Device& dev, gpusim::BufferId x,
                                gpusim::BufferId b, bool relu,
                                gpusim::BufferId* pre_act = nullptr);

/// Backward of apply_bias_act: dx = act'(pre) (.) dy, db = colsum(dx).
struct BiasActGrads {
  gpusim::BufferId dx = gpusim::kInvalidBuffer;
  gpusim::BufferId db = gpusim::kInvalidBuffer;
};
BiasActGrads apply_bias_act_backward(gpusim::Device& dev,
                                     gpusim::BufferId pre_act,
                                     gpusim::BufferId dy, bool relu);

/// h'/f'-only Pull backward in the *transformed* (hidden) space, used by
/// combination-first backward with scalar weights: dT[s] = sum over edges
/// (s->d) of coeff * w_e * dA[d]. `weights` is the [E,1] buffer computed by
/// NeighborApply in the original feature space.
gpusim::BufferId pull_backward_h(gpusim::Device& dev, const DeviceCsr& csr,
                                 const DeviceCsc& csc,
                                 gpusim::BufferId weights, gpusim::BufferId da,
                                 AggMode f);

/// g' terms of the combination-first order (scalar weights only): with
/// T = x W, dw_e = <coeff * dA[d], T[s]>, contributing dw_e * x[d] to dX[s]
/// (CSC pass) and dw_e * x[s] to dX[d] (CSR pass). Accumulates into dx.
void edge_weight_backward_cf(gpusim::Device& dev, const DeviceCsr& csr,
                             const DeviceCsc& csc, gpusim::BufferId x,
                             gpusim::BufferId t, gpusim::BufferId da,
                             gpusim::BufferId dx, AggMode f);

/// Backward through apply_dense. `x` is the combination input (aggregation
/// output), `pre_act` the cached x W + b (ignored when !relu).
/// `want_dx=false` skips the dX = dZ W^T kernel (returned dx is invalid):
/// the first GNN layer's backward only needs parameter gradients.
DenseGrads apply_dense_backward(gpusim::Device& dev, gpusim::BufferId x,
                                gpusim::BufferId w, gpusim::BufferId pre_act,
                                gpusim::BufferId dy, bool relu,
                                bool want_dx = true);

/// Source-side gradients of Pull (h' and f', and for weighted modes the
/// g'-via-src term): dX [n_vertices, F]. Traverses CSC; `csr` provides the
/// per-dst degrees mean aggregation divides by. kMax unsupported (throws).
gpusim::BufferId pull_backward(gpusim::Device& dev, const DeviceCsr& csr,
                               const DeviceCsc& csc, gpusim::BufferId x,
                               gpusim::BufferId weights, gpusim::BufferId da,
                               AggMode f, EdgeWeightMode gmode);

/// Destination-side gradient terms of NeighborApply (g' w.r.t. the dst
/// embedding), accumulated *into* dx. Must not be called with kNone.
void neighbor_apply_backward(gpusim::Device& dev, const DeviceCsr& g,
                             gpusim::BufferId x, gpusim::BufferId da,
                             gpusim::BufferId dx, AggMode f,
                             EdgeWeightMode gmode);

}  // namespace gt::kernels::napa
