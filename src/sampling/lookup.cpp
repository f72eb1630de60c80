#include "sampling/lookup.hpp"

#include <stdexcept>

namespace gt::sampling {

Matrix EmbeddingLookup::gather_all(std::span<const Vid> vids) const {
  Matrix out(vids.size(), table_.dim());
  gather_chunk(vids, 0, vids.size(), out);
  return out;
}

void EmbeddingLookup::gather_chunk(std::span<const Vid> vids,
                                   std::size_t begin, std::size_t end,
                                   Matrix& out) const {
  if (end > vids.size() || begin > end)
    throw std::out_of_range("gather_chunk: bad range");
  if (out.rows() != vids.size() || out.cols() != table_.dim())
    throw std::invalid_argument("gather_chunk: output shape mismatch");
  for (std::size_t r = begin; r < end; ++r)
    table_.gather_row(vids[r], out.row(r));
}

}  // namespace gt::sampling
