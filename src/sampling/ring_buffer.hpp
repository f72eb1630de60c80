// Pinned-memory ring buffer for chunked K->T overlap (DESIGN.md §15).
//
// A flat miss-gather serializes the K stage (scan the host embedding
// table) against the T stage (one big PCIe upload). lookup.hpp already
// anticipates the pipelined alternative — "each ready chunk is transferred
// while the next is gathered" — and this type prices it: a small set of
// pinned slots is filled chunk by chunk, each chunk's upload priced
// through the same Transfer/PcieModel path the schedule uses, while the
// *next* chunk's gather proceeds concurrently. The slot count bounds the
// pipeline depth: the gather for chunk c+slots must wait until chunk c's
// transfer has drained its slot.
//
// Numerics: the slots are modeled, not materialized; only the pricing (the
// Overlap result) reflects the pipelining. Two front ends feed one pricing
// loop. gather_through synthesizes rows from the embedding table, each
// written once straight to its destination, so its output is
// bit-identical to a flat gather. gather_prepared only prices rows the K
// stage already synthesized into a prepared batch: the cached path's
// CacheHierarchy::assemble reads them from the prepared table itself, so
// each row is copied once on the host (DESIGN.md §15).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "datasets/embedding.hpp"
#include "sampling/transfer.hpp"
#include "tensor/view.hpp"

namespace gt::sampling {

struct RingConfig {
  std::size_t slots = 4;       ///< concurrent in-flight chunks (>= 1)
  std::size_t chunk_rows = 512;  ///< rows staged per chunk (>= 1)
};

class PinnedRingBuffer {
 public:
  PinnedRingBuffer(std::size_t dim, RingConfig config);

  /// Closed-form pricing of the chunked gather/transfer pipeline.
  struct Overlap {
    std::size_t chunks = 0;
    std::size_t bytes = 0;
    double gather_us = 0.0;    ///< sum of per-chunk K gather costs
    double transfer_us = 0.0;  ///< sum of per-chunk T upload costs
    double critical_us = 0.0;  ///< pipelined makespan with slot reuse
    /// Work hidden by the pipeline: serial cost minus makespan.
    double overlapped_us() const noexcept {
      return gather_us + transfer_us - critical_us;
    }
  };

  /// Gather every row of `vids` into `out` (row i <- vids[i]) and price
  /// the chunk pipeline: chunk c's upload overlaps chunk c+1's gather; one
  /// PCIe link serializes uploads; slot reuse stalls the gather of chunk
  /// c+slots behind chunk c's upload. `us_per_gather_byte` is the host
  /// gather cost (the schedule's K rate); uploads are priced by
  /// `transfer.transfer_us`. Throws std::invalid_argument unless `out` is
  /// vids.size() x dim(), and std::out_of_range for a vid outside the
  /// table.
  Overlap gather_through(const EmbeddingTable& table,
                         std::span<const Vid> vids, MatrixView out,
                         const Transfer& transfer,
                         double us_per_gather_byte) const;

  /// Prepared-row front end: price the chunk pipeline for staging
  /// prepared.row(rows[i]) for every i — rows a batch's K stage already
  /// synthesized — exactly as gather_through prices rows.size() rows. No
  /// row is copied: the caller reads them from `prepared` where they are
  /// consumed. Throws std::invalid_argument unless `prepared` has dim()
  /// columns, and std::out_of_range for a row index past prepared.rows().
  Overlap gather_prepared(ConstMatrixView prepared,
                          std::span<const std::uint32_t> rows,
                          const Transfer& transfer,
                          double us_per_gather_byte) const;

  const RingConfig& config() const noexcept { return config_; }
  std::size_t dim() const noexcept { return dim_; }

 private:
  /// The pricing loop both front ends share: `rows` rows in chunks.
  Overlap price(std::size_t rows, const Transfer& transfer,
                double us_per_gather_byte) const;

  RingConfig config_;
  std::size_t dim_ = 0;
};

}  // namespace gt::sampling
