#include "sampling/ring_buffer.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace gt::sampling {

PinnedRingBuffer::PinnedRingBuffer(std::size_t dim, RingConfig config)
    : config_(config), dim_(dim) {
  config_.slots = std::max<std::size_t>(config_.slots, 1);
  config_.chunk_rows = std::max<std::size_t>(config_.chunk_rows, 1);
}

PinnedRingBuffer::Overlap PinnedRingBuffer::gather_through(
    const EmbeddingTable& table, std::span<const Vid> vids, MatrixView out,
    const Transfer& transfer, double us_per_gather_byte) const {
  if (out.rows() != vids.size() || out.cols() != dim_)
    throw std::invalid_argument("PinnedRingBuffer::gather_through: shape "
                                "mismatch");
  for (std::size_t i = 0; i < vids.size(); ++i)
    table.gather_row(vids[i], out.row(i));
  return price(vids.size(), transfer, us_per_gather_byte);
}

PinnedRingBuffer::Overlap PinnedRingBuffer::gather_prepared(
    ConstMatrixView prepared, std::span<const std::uint32_t> rows,
    const Transfer& transfer, double us_per_gather_byte) const {
  if (prepared.cols() != dim_)
    throw std::invalid_argument("PinnedRingBuffer::gather_prepared: shape "
                                "mismatch");
  for (const std::uint32_t row : rows)
    if (row >= prepared.rows())
      throw std::out_of_range("PinnedRingBuffer::gather_prepared: row out "
                              "of range");
  return price(rows.size(), transfer, us_per_gather_byte);
}

PinnedRingBuffer::Overlap PinnedRingBuffer::price(
    std::size_t rows, const Transfer& transfer,
    double us_per_gather_byte) const {
  Overlap ov;
  if (rows == 0) return ov;

  const std::size_t row_bytes = dim_ * sizeof(float);
  // Per-slot drain time: the upload that must finish before the slot can
  // be refilled. One host gather lane, one PCIe lane.
  std::vector<double> slot_free(config_.slots, 0.0);
  double gather_done = 0.0;
  double pcie_free = 0.0;

  for (std::size_t begin = 0; begin < rows; begin += config_.chunk_rows) {
    const std::size_t chunk_rows = std::min(config_.chunk_rows, rows - begin);
    const std::size_t slot = ov.chunks % config_.slots;

    // Gather waits for the slot to drain, upload waits for the gather and
    // for the PCIe lane.
    const std::size_t chunk_bytes = chunk_rows * row_bytes;
    const double g_us = static_cast<double>(chunk_bytes) * us_per_gather_byte;
    const double t_us = transfer.transfer_us(chunk_bytes);
    const double g_start = std::max(gather_done, slot_free[slot]);
    gather_done = g_start + g_us;
    const double t_start = std::max(gather_done, pcie_free);
    pcie_free = t_start + t_us;
    slot_free[slot] = pcie_free;

    ov.bytes += chunk_bytes;
    ov.gather_us += g_us;
    ov.transfer_us += t_us;
    ++ov.chunks;
  }
  ov.critical_us = pcie_free;
  return ov;
}

}  // namespace gt::sampling
