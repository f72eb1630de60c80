#include "kernels/reference.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace gt::kernels::ref {

namespace {

/// Core of edge_weights: fills `w` (already sized) for kDot/kElemProduct.
void edge_weights_core(const Csr& csr, ConstMatrixView x, Vid n_dst,
                       EdgeWeightMode g, MatrixView w) {
  const std::size_t f = x.cols();
  for (Vid d = 0; d < n_dst; ++d) {
    const auto xd = x.row(d);
    for (Eid e = csr.row_ptr[d]; e < csr.row_ptr[d + 1]; ++e) {
      const auto xs = x.row(csr.col_idx[e]);
      if (g == EdgeWeightMode::kDot) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < f; ++c) acc += xs[c] * xd[c];
        w.at(e, 0) = acc * dot_weight_scale(f);
      } else {
        for (std::size_t c = 0; c < f; ++c) w.at(e, c) = xs[c] * xd[c];
      }
    }
  }
}

/// Core of aggregate: accumulates into zero-filled `out`.
void aggregate_core(const Csr& csr, ConstMatrixView x, ConstMatrixView weights,
                    Vid n_dst, AggMode f, EdgeWeightMode g, MatrixView out) {
  const std::size_t feat = x.cols();
  for (Vid d = 0; d < n_dst; ++d) {
    auto od = out.row(d);
    const Eid begin = csr.row_ptr[d], end = csr.row_ptr[d + 1];
    if (f == AggMode::kMax) {
      bool first = true;
      for (Eid e = begin; e < end; ++e) {
        const auto xs = x.row(csr.col_idx[e]);
        for (std::size_t c = 0; c < feat; ++c) {
          float h = xs[c];
          if (g == EdgeWeightMode::kDot) h *= weights.at(e, 0);
          if (g == EdgeWeightMode::kElemProduct) h *= weights.at(e, c);
          od[c] = first ? h : std::max(od[c], h);
        }
        first = false;
      }
      continue;
    }
    for (Eid e = begin; e < end; ++e) {
      const auto xs = x.row(csr.col_idx[e]);
      for (std::size_t c = 0; c < feat; ++c) {
        float h = xs[c];
        if (g == EdgeWeightMode::kDot) h *= weights.at(e, 0);
        if (g == EdgeWeightMode::kElemProduct) h *= weights.at(e, c);
        od[c] += h;
      }
    }
    if (f == AggMode::kMean && end > begin) {
      const float inv = 1.0f / static_cast<float>(end - begin);
      for (std::size_t c = 0; c < feat; ++c) od[c] *= inv;
    }
  }
}

/// Core of backward_layer's aggregation+weighting part: accumulates into
/// zero-filled `dx`.
void backward_agg_core(const Csr& csr, ConstMatrixView x, Vid n_dst, AggMode f,
                       EdgeWeightMode g, ConstMatrixView da,
                       ConstMatrixView cache_weights, MatrixView dx) {
  const std::size_t feat = x.cols();
  for (Vid d = 0; d < n_dst; ++d) {
    const Eid begin = csr.row_ptr[d], end = csr.row_ptr[d + 1];
    if (begin == end) continue;
    const float coeff =
        f == AggMode::kMean ? 1.0f / static_cast<float>(end - begin) : 1.0f;
    const auto dad = da.row(d);
    const auto xd = x.row(d);
    for (Eid e = begin; e < end; ++e) {
      const Vid s = csr.col_idx[e];
      const auto xs = x.row(s);
      auto dxs = dx.row(s);
      switch (g) {
        case EdgeWeightMode::kNone:
          for (std::size_t c = 0; c < feat; ++c) dxs[c] += coeff * dad[c];
          break;
        case EdgeWeightMode::kDot: {
          const float we = cache_weights.at(e, 0);
          // dL/dw_e = <coeff * da_d, x_s>; w_e = <x_s, x_d>.
          float dwe = 0.0f;
          for (std::size_t c = 0; c < feat; ++c)
            dwe += coeff * dad[c] * xs[c];
          dwe *= dot_weight_scale(feat);  // dw/dx carries the same scale
          auto dxd = dx.row(d);
          for (std::size_t c = 0; c < feat; ++c) {
            dxs[c] += coeff * we * dad[c] + dwe * xd[c];
            dxd[c] += dwe * xs[c];
          }
          break;
        }
        case EdgeWeightMode::kElemProduct: {
          auto dxd = dx.row(d);
          for (std::size_t c = 0; c < feat; ++c) {
            const float dh = coeff * dad[c];
            const float dwe = dh * xs[c];  // dL/dw_e[c]
            dxs[c] += cache_weights.at(e, c) * dh + dwe * xd[c];
            dxd[c] += dwe * xs[c];
          }
          break;
        }
      }
    }
  }
}

}  // namespace

Matrix edge_weights(const Csr& csr, const Matrix& x, Vid n_dst,
                    EdgeWeightMode g) {
  if (g == EdgeWeightMode::kNone) return {};
  Matrix w(csr.num_edges(), g == EdgeWeightMode::kDot ? 1 : x.cols());
  edge_weights_core(csr, x, n_dst, g, w);
  return w;
}

MatrixView edge_weights(Arena& arena, const Csr& csr, ConstMatrixView x,
                        Vid n_dst, EdgeWeightMode g) {
  if (g == EdgeWeightMode::kNone) return {};
  MatrixView w = arena.alloc(csr.num_edges(),
                             g == EdgeWeightMode::kDot ? 1 : x.cols());
  edge_weights_core(csr, x, n_dst, g, w);
  return w;
}

Matrix aggregate(const Csr& csr, const Matrix& x, const Matrix& weights,
                 Vid n_dst, AggMode f, EdgeWeightMode g) {
  Matrix out(n_dst, x.cols());
  aggregate_core(csr, x, weights, n_dst, f, g, out);
  return out;
}

MatrixView aggregate(Arena& arena, const Csr& csr, ConstMatrixView x,
                     ConstMatrixView weights, Vid n_dst, AggMode f,
                     EdgeWeightMode g) {
  MatrixView out = arena.alloc(n_dst, x.cols());
  aggregate_core(csr, x, weights, n_dst, f, g, out);
  return out;
}

Matrix combine(const Matrix& x, const Matrix& w, const Matrix& b, bool relu_act,
               Matrix* pre_act) {
  Matrix z = add_bias(matmul(x, w), b);
  if (pre_act != nullptr) *pre_act = z;
  return relu_act ? relu(z) : z;
}

MatrixView combine(Arena& arena, ConstMatrixView x, ConstMatrixView w,
                   ConstMatrixView b, bool relu_act) {
  MatrixView z = arena.alloc(x.rows(), w.cols());
  matmul_into(x, w, z);
  add_bias_into(ConstMatrixView(z), b, z);  // in place: elementwise-safe
  if (!relu_act) return z;
  MatrixView y = arena.alloc(z.rows(), z.cols());
  relu_into(ConstMatrixView(z), y);
  return y;
}

Matrix forward_layer(const Csr& csr, const Matrix& x, const Matrix& w,
                     const Matrix& b, Vid n_dst, AggMode f, EdgeWeightMode g,
                     bool relu_act, LayerCache* cache) {
  Matrix weights = edge_weights(csr, x, n_dst, g);
  Matrix aggr = aggregate(csr, x, weights, n_dst, f, g);
  Matrix pre;
  Matrix y = combine(aggr, w, b, relu_act, &pre);
  if (cache != nullptr) {
    cache->weights = std::move(weights);
    cache->aggr = std::move(aggr);
    cache->pre_act = std::move(pre);
  }
  return y;
}

MatrixView forward_layer(Arena& arena, const Csr& csr, ConstMatrixView x,
                         ConstMatrixView w, ConstMatrixView b, Vid n_dst,
                         AggMode f, EdgeWeightMode g, bool relu_act) {
  MatrixView weights = edge_weights(arena, csr, x, n_dst, g);
  MatrixView aggr = aggregate(arena, csr, x, weights, n_dst, f, g);
  return combine(arena, aggr, w, b, relu_act);
}

Matrix forward_layer_combination_first(const Csr& csr, const Matrix& x,
                                       const Matrix& w, const Matrix& b,
                                       Vid n_dst, AggMode f, EdgeWeightMode g,
                                       bool relu_act) {
  if (!dkp_compatible(g))
    throw std::invalid_argument(
        "combination-first order requires scalar (or no) edge weights");
  // Weights are computed in the *original* feature space, then the
  // transform is hoisted: aggregate(xW) with those weights. Scalar weights
  // commute with the linear map, so this equals the aggregation-first
  // result up to float re-association.
  Matrix weights = edge_weights(csr, x, n_dst, g);
  Matrix transformed = matmul(x, w);
  Matrix aggr = aggregate(csr, transformed, weights, n_dst, f, g);
  Matrix z = add_bias(aggr, b);
  return relu_act ? relu(z) : z;
}

LayerGrads backward_layer(const Csr& csr, const Matrix& x, const Matrix& w,
                          Vid n_dst, AggMode f, EdgeWeightMode g,
                          bool relu_act, const Matrix& dy,
                          const LayerCache& cache) {
  if (f == AggMode::kMax)
    throw std::invalid_argument("backward for max aggregation not supported");
  // Combination backward.
  Matrix dz = relu_act ? relu_backward(dy, cache.pre_act) : dy;
  LayerGrads grads;
  grads.dw = matmul_at_b(cache.aggr, dz);
  grads.db = col_sum(dz);
  Matrix da = matmul_a_bt(dz, w);  // [n_dst, F]

  // Aggregation + weighting backward.
  grads.dx = Matrix::zeros(x.rows(), x.cols());
  backward_agg_core(csr, x, n_dst, f, g, da, cache.weights, grads.dx);
  return grads;
}

}  // namespace gt::kernels::ref
