// Serial CPU reference for one GNN layer (forward and backward).
//
// This is the correctness oracle: every device kernel family (NAPA,
// Graph-approach, DL-approach, GNNAdvisor-style) must reproduce these
// numerics bit-for-bit up to float re-association. The DKP equivalence
// (combination-first == aggregation-first for scalar edge weights) is also
// validated against this implementation.
//
// Every primitive has an owning form (a fresh Matrix per call), which the
// kernel tests use as the oracle. The forward path — edge weights,
// aggregation, combination and the aggregation-first layer — also has an
// arena form writing activations into gt::Arena views, which
// GnnService::evaluate uses so repeated held-out batches allocate nothing.
// Both forms compute bit-identical values.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "kernels/common.hpp"
#include "tensor/arena.hpp"
#include "tensor/matrix.hpp"
#include "tensor/view.hpp"

namespace gt::kernels::ref {

/// Edge weights in CSR edge order. Shape: [E,1] for kDot, [E,F] for
/// kElemProduct, empty matrix for kNone.
Matrix edge_weights(const Csr& csr, const Matrix& x, Vid n_dst,
                    EdgeWeightMode g);
MatrixView edge_weights(Arena& arena, const Csr& csr, ConstMatrixView x,
                        Vid n_dst, EdgeWeightMode g);

/// Aggregate weighted source embeddings per dst: [n_dst, F].
/// `weights` must come from edge_weights (ignored for kNone).
Matrix aggregate(const Csr& csr, const Matrix& x, const Matrix& weights,
                 Vid n_dst, AggMode f, EdgeWeightMode g);
MatrixView aggregate(Arena& arena, const Csr& csr, ConstMatrixView x,
                     ConstMatrixView weights, Vid n_dst, AggMode f,
                     EdgeWeightMode g);

/// Combination: act(x W + b). `pre_act` (optional) receives x W + b.
Matrix combine(const Matrix& x, const Matrix& w, const Matrix& b, bool relu,
               Matrix* pre_act = nullptr);
MatrixView combine(Arena& arena, ConstMatrixView x, ConstMatrixView w,
                   ConstMatrixView b, bool relu);

/// Everything the backward pass needs from forward.
struct LayerCache {
  Matrix weights;  // edge weights (may be empty)
  Matrix aggr;     // aggregation output [n_dst, F]
  Matrix pre_act;  // A W + b (for the ReLU mask)
};

/// Full layer, aggregation-first: Y = act(aggregate(x) W + b).
Matrix forward_layer(const Csr& csr, const Matrix& x, const Matrix& w,
                     const Matrix& b, Vid n_dst, AggMode f, EdgeWeightMode g,
                     bool relu, LayerCache* cache = nullptr);
MatrixView forward_layer(Arena& arena, const Csr& csr, ConstMatrixView x,
                         ConstMatrixView w, ConstMatrixView b, Vid n_dst,
                         AggMode f, EdgeWeightMode g, bool relu);

/// Full layer, combination-first (the DKP-rewritten order):
/// Y = act(aggregate(x W, weights(x)) + b). Requires dkp_compatible(g).
Matrix forward_layer_combination_first(const Csr& csr, const Matrix& x,
                                       const Matrix& w, const Matrix& b,
                                       Vid n_dst, AggMode f, EdgeWeightMode g,
                                       bool relu);

struct LayerGrads {
  Matrix dx;  // [n_vertices, F]
  Matrix dw;  // same shape as W
  Matrix db;  // 1 x H
};

/// Backward through the aggregation-first layer. kMax is unsupported
/// (throws): training models here use sum/mean, as the paper's GCN/NGCF do.
LayerGrads backward_layer(const Csr& csr, const Matrix& x, const Matrix& w,
                          Vid n_dst, AggMode f, EdgeWeightMode g, bool relu,
                          const Matrix& dy, const LayerCache& cache);

}  // namespace gt::kernels::ref
