// Embedding lookup (the K task, paper §II-B): scan the global embedding
// table by original VID and build the compact per-batch table the first GNN
// layer consumes. Chunked gathering supports the pipelined K->T overlap of
// the service-wide tensor scheduler (each ready chunk is transferred while
// the next is gathered).
#pragma once

#include <cstddef>
#include <span>

#include "datasets/embedding.hpp"
#include "tensor/matrix.hpp"

namespace gt::sampling {

class EmbeddingLookup {
 public:
  explicit EmbeddingLookup(const EmbeddingTable& table) : table_(table) {}

  /// Gather all rows for `vids` (in order) into a fresh matrix.
  Matrix gather_all(std::span<const Vid> vids) const;

  /// Gather rows [begin, end) of `vids` into `out` at the same offsets.
  /// `out` must have vids.size() rows and table dim columns.
  void gather_chunk(std::span<const Vid> vids, std::size_t begin,
                    std::size_t end, Matrix& out) const;

  /// Bytes a gather of n rows produces (the T task's payload size).
  std::size_t gathered_bytes(std::size_t rows) const noexcept {
    return rows * table_.dim() * sizeof(float);
  }

  const EmbeddingTable& table() const noexcept { return table_; }

 private:
  const EmbeddingTable& table_;
};

}  // namespace gt::sampling
