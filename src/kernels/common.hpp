// Shared GNN kernel semantics and device graph handles.
//
// All three execution approaches (NAPA, Graph-approach, DL-approach)
// implement the *same* math so they are interchangeable and testable
// against the CPU reference in kernels/reference.hpp:
//
//   edge weighting  g : per-edge weight from (src, dst) embeddings
//     kNone        w_e = 1                       (GCN)
//     kDot         w_e = <x_src, x_dst>          (NGCF-style similarity;
//                                                 the SDDMM of Fig 5b)
//     kElemProduct w_e = x_src (.) x_dst         (vector weight; DL-op style)
//   weighted source h : h_e = w_e * x_src  (scalar or elementwise)
//   aggregation     f : sum / mean / max over in-edges of each dst
//   combination       : Y = act(X W + b), act in {identity, ReLU}
//
// Layer tensor convention (paper Fig 4): the subgraph of a layer has
// n_vertices input rows; its destinations occupy the dense id prefix
// [0, n_dst). Its output has n_dst rows.
#pragma once

#include <cmath>
#include <cstdint>

#include "gpusim/device.hpp"
#include "graph/coo.hpp"
#include "graph/csc.hpp"
#include "graph/csr.hpp"
#include "tensor/arena.hpp"
#include "tensor/matrix.hpp"
#include "tensor/view.hpp"

namespace gt::kernels {

enum class AggMode : std::uint8_t { kSum, kMean, kMax };
enum class EdgeWeightMode : std::uint8_t { kNone, kDot, kElemProduct };

const char* to_string(AggMode m);
const char* to_string(EdgeWeightMode m);

/// True iff h(x)W == h(xW), i.e. dynamic kernel placement may hoist the
/// combination above the weighting+aggregation. Scalar weights commute
/// with the linear transform; elementwise vector weights do not.
inline bool dkp_compatible(EdgeWeightMode g) {
  return g != EdgeWeightMode::kElemProduct;
}

/// Scaling of the dot-product similarity weight: w_e = <x_s, x_d> / sqrt(F)
/// (standard scaled-dot-product normalization). Without it the similarity
/// magnitude grows with the feature dimension and NGCF training diverges
/// on heavy-feature graphs.
inline float dot_weight_scale(std::size_t feature_dim) {
  return 1.0f / std::sqrt(static_cast<float>(feature_dim));
}

// ---- Device-resident graph structures --------------------------------------

struct DeviceCsr {
  gpusim::BufferId row_ptr = gpusim::kInvalidBuffer;  // n_dst + 1 entries
  gpusim::BufferId col_idx = gpusim::kInvalidBuffer;  // E src ids
  /// Optional: for CSRs produced by on-device COO->CSR translation
  /// (Graph-approach), edge_id[k] is the original COO edge index of the
  /// k-th CSR entry, so SpMM can address SDDMM weights that were computed
  /// in COO order. kInvalidBuffer for natively-CSR graphs (NAPA).
  gpusim::BufferId edge_id = gpusim::kInvalidBuffer;
  Vid n_dst = 0;
  Vid n_vertices = 0;  // input table rows (src id space)
  Eid n_edges = 0;
};

struct DeviceCsc {
  gpusim::BufferId col_ptr = gpusim::kInvalidBuffer;  // n_vertices + 1
  gpusim::BufferId row_idx = gpusim::kInvalidBuffer;  // E dst ids
  /// edge_id[k]: the CSR edge index of the k-th CSC entry, so backward
  /// passes can reuse forward edge weights without re-deriving them.
  gpusim::BufferId edge_id = gpusim::kInvalidBuffer;
  Vid n_dst = 0;
  Vid n_vertices = 0;
  Eid n_edges = 0;
};

struct DeviceCoo {
  gpusim::BufferId src = gpusim::kInvalidBuffer;
  gpusim::BufferId dst = gpusim::kInvalidBuffer;
  Vid n_dst = 0;
  Vid n_vertices = 0;
  Eid n_edges = 0;
};

/// Upload host formats into device buffers (allocation overhead charged).
DeviceCsr upload_csr(gpusim::Device& dev, const Csr& csr, Vid n_dst);
DeviceCsc upload_csc(gpusim::Device& dev, const Csr& csr, Vid n_dst);
DeviceCoo upload_coo(gpusim::Device& dev, const Coo& coo, Vid n_dst);

void free_graph(gpusim::Device& dev, const DeviceCsr& g);
void free_graph(gpusim::Device& dev, const DeviceCsc& g);
void free_graph(gpusim::Device& dev, const DeviceCoo& g);

/// Upload a host matrix (owning or view) as a device f32 buffer: allocated
/// unfilled, then every element copied once.
gpusim::BufferId upload_matrix(gpusim::Device& dev, ConstMatrixView m,
                               std::string name);
/// Download into a fresh owning matrix (cold path / tests).
Matrix download_matrix(const gpusim::Device& dev, gpusim::BufferId id);
/// Download into an existing view of matching shape (batch hot path).
void download_matrix_into(const gpusim::Device& dev, gpusim::BufferId id,
                          MatrixView out);
/// Download into a view carved from `arena`.
MatrixView download_matrix(const gpusim::Device& dev, gpusim::BufferId id,
                           Arena& arena);

/// A device f32 buffer's host storage as a rows x cols matrix.
inline MatrixView device_view(gpusim::Device& dev, gpusim::BufferId id) {
  return MatrixView(dev.f32(id).data(), dev.rows(id), dev.cols(id));
}
inline ConstMatrixView device_view(const gpusim::Device& dev,
                                   gpusim::BufferId id) {
  return ConstMatrixView(dev.f32(id).data(), dev.rows(id), dev.cols(id));
}

/// Bytes of one embedding row of `buf`.
inline std::size_t row_bytes(const gpusim::Device& dev, gpusim::BufferId buf) {
  return dev.cols(buf) * sizeof(float);
}

}  // namespace gt::kernels
