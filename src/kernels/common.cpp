#include "kernels/common.hpp"

#include <numeric>
#include <stdexcept>

namespace gt::kernels {

const char* to_string(AggMode m) {
  switch (m) {
    case AggMode::kSum:  return "sum";
    case AggMode::kMean: return "mean";
    case AggMode::kMax:  return "max";
  }
  return "?";
}

const char* to_string(EdgeWeightMode m) {
  switch (m) {
    case EdgeWeightMode::kNone:        return "none";
    case EdgeWeightMode::kDot:         return "dot";
    case EdgeWeightMode::kElemProduct: return "elem-product";
  }
  return "?";
}

DeviceCsr upload_csr(gpusim::Device& dev, const Csr& csr, Vid n_dst) {
  DeviceCsr g;
  g.n_dst = n_dst;
  g.n_vertices = csr.num_vertices;
  g.n_edges = csr.num_edges();
  g.row_ptr = dev.alloc_u32(static_cast<std::size_t>(n_dst) + 1, "csr.row_ptr");
  g.col_idx = dev.alloc_u32(csr.num_edges(), "csr.col_idx");
  auto rp = dev.u32(g.row_ptr);
  for (Vid v = 0; v <= n_dst; ++v)
    rp[v] = static_cast<std::uint32_t>(csr.row_ptr[v]);
  auto ci = dev.u32(g.col_idx);
  for (Eid e = 0; e < csr.num_edges(); ++e)
    ci[e] = csr.col_idx[e];
  dev.charge_alloc_overhead("upload_csr", 2);
  return g;
}

DeviceCsc upload_csc(gpusim::Device& dev, const Csr& csr, Vid n_dst) {
  // Build the CSC (src-indexed) view of the same edges, remembering each
  // edge's CSR index so backward kernels can reuse forward edge weights.
  const Vid n_vertices = csr.num_vertices;
  std::vector<std::uint32_t> col_ptr(static_cast<std::size_t>(n_vertices) + 2,
                                     0);
  for (Vid s : csr.col_idx) ++col_ptr[s + 1];
  for (std::size_t i = 1; i < col_ptr.size(); ++i)
    col_ptr[i] += col_ptr[i - 1];
  std::vector<std::uint32_t> row_idx(csr.num_edges());
  std::vector<std::uint32_t> edge_id(csr.num_edges());
  std::vector<std::uint32_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
  for (Vid d = 0; d < n_dst; ++d) {
    for (Eid e = csr.row_ptr[d]; e < csr.row_ptr[d + 1]; ++e) {
      const Vid s = csr.col_idx[e];
      row_idx[cursor[s]] = d;
      edge_id[cursor[s]] = static_cast<std::uint32_t>(e);
      ++cursor[s];
    }
  }

  DeviceCsc g;
  g.n_dst = n_dst;
  g.n_vertices = n_vertices;
  g.n_edges = csr.num_edges();
  g.col_ptr =
      dev.alloc_u32(static_cast<std::size_t>(n_vertices) + 1, "csc.col_ptr");
  g.row_idx = dev.alloc_u32(csr.num_edges(), "csc.row_idx");
  g.edge_id = dev.alloc_u32(csr.num_edges(), "csc.edge_id");
  std::copy_n(col_ptr.begin(), n_vertices + 1, dev.u32(g.col_ptr).begin());
  std::copy(row_idx.begin(), row_idx.end(), dev.u32(g.row_idx).begin());
  std::copy(edge_id.begin(), edge_id.end(), dev.u32(g.edge_id).begin());
  dev.charge_alloc_overhead("upload_csc", 3);
  return g;
}

DeviceCoo upload_coo(gpusim::Device& dev, const Coo& coo, Vid n_dst) {
  DeviceCoo g;
  g.n_dst = n_dst;
  g.n_vertices = coo.num_vertices;
  g.n_edges = coo.num_edges();
  g.src = dev.alloc_u32(coo.num_edges(), "coo.src");
  g.dst = dev.alloc_u32(coo.num_edges(), "coo.dst");
  std::copy(coo.src.begin(), coo.src.end(), dev.u32(g.src).begin());
  std::copy(coo.dst.begin(), coo.dst.end(), dev.u32(g.dst).begin());
  dev.charge_alloc_overhead("upload_coo", 2);
  return g;
}

void free_graph(gpusim::Device& dev, const DeviceCsr& g) {
  dev.free(g.row_ptr);
  dev.free(g.col_idx);
  if (g.edge_id != gpusim::kInvalidBuffer) dev.free(g.edge_id);
}

void free_graph(gpusim::Device& dev, const DeviceCsc& g) {
  dev.free(g.col_ptr);
  dev.free(g.row_idx);
  dev.free(g.edge_id);
}

void free_graph(gpusim::Device& dev, const DeviceCoo& g) {
  dev.free(g.src);
  dev.free(g.dst);
}

gpusim::BufferId upload_matrix(gpusim::Device& dev, ConstMatrixView m,
                               std::string name) {
  auto id = dev.alloc_f32(m.rows(), m.cols(), std::move(name),
                          gpusim::HostStorage::kUninitialized);
  auto dst = dev.f32(id);
  std::copy(m.data().begin(), m.data().end(), dst.begin());
  dev.charge_alloc_overhead("upload_matrix", 1);
  return id;
}

Matrix download_matrix(const gpusim::Device& dev, gpusim::BufferId id) {
  Matrix m(dev.rows(id), dev.cols(id));
  download_matrix_into(dev, id, m);
  return m;
}

void download_matrix_into(const gpusim::Device& dev, gpusim::BufferId id,
                          MatrixView out) {
  auto src = dev.f32(id);
  if (out.rows() != dev.rows(id) || out.cols() != dev.cols(id))
    throw std::invalid_argument("download_matrix_into: shape mismatch");
  std::copy(src.begin(), src.end(), out.data().begin());
}

MatrixView download_matrix(const gpusim::Device& dev, gpusim::BufferId id,
                           Arena& arena) {
  MatrixView out = arena.alloc(dev.rows(id), dev.cols(id));
  download_matrix_into(dev, id, out);
  return out;
}

}  // namespace gt::kernels
