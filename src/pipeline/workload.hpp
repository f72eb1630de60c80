// Preprocessing workload description and host-side cost parameters.
//
// The discrete-event scheduler prices subtasks from *counted work* (edges
// sampled, hash operations, bytes gathered/moved), exactly as DESIGN.md §2
// prescribes: on this box wall-clock parallelism cannot be observed, but
// the schedule shapes (Figs 12/13/14/19/20) are a pure function of these
// counts and the dependency structure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sampling/sampler.hpp"

namespace gt::pipeline {

/// Unit costs for host-side preprocessing work (microseconds). Defaults
/// are calibrated so that the serial end-to-end decomposition reproduces
/// the paper's Fig 12a regime: GNN compute ~15% of end-to-end, sampling
/// dominating light-feature workloads, lookup+transfer dominating
/// heavy-feature ones.
struct HostCostParams {
  double us_per_sampled_edge = 0.9;   // S algorithm part: RNG + adjacency scan
  double us_per_hash_op = 0.36;       // S/R hash insert or lookup
  double us_per_reindex_edge = 0.6;   // R: 2 lookups + format writes
  double us_per_lookup_byte = 6.0e-3; // K: random-access embedding gather
  std::size_t num_cores = 12;         // paper testbed: 12-core Xeon host
  /// Host preprocessing is memory-bound: threads contend for DRAM and the
  /// LLC, so 12 cores deliver ~6 cores' worth of throughput. Applied to
  /// every parallel chunk's duration.
  double parallel_efficiency = 0.5;
  std::size_t chunks_per_task = 12;   // subtask fan-out per hop/type
  std::size_t kt_chunk_rows = 512;    // pipelined K->T chunk granularity
  /// Lock-contention inflation for the *unrelaxed* scheduler. Contended
  /// mutexes cost more than the sum of their critical sections (futex
  /// round-trips, cache-line ping-pong): fused S chunks pay their hash
  /// share times ss_contention_factor (paper Fig 14a: 47.4% of
  /// preprocessing lost between S subtasks), and reindex chunks racing the
  /// sampler for the table slow by sr_contention_factor (paper: 39.0%
  /// lost between S and R).
  double ss_contention_factor = 2.2;
  double sr_contention_factor = 2.5;
};

/// Per-hop sampling volume.
struct HopWork {
  std::uint64_t frontier = 0;      // vertices expanded this hop
  std::uint64_t edges = 0;         // edges sampled
  std::uint64_t hash_inserts = 0;  // insert_or_get calls (edge srcs)
  std::uint64_t new_vertices = 0;  // vertices first discovered this hop
};

/// Everything the planner needs to price one batch's preprocessing.
struct BatchWorkload {
  std::uint32_t num_layers = 0;
  std::uint64_t batch_size = 0;
  std::vector<HopWork> hops;             // [0] = hop 1, ... (L entries)
  std::vector<std::uint64_t> layer_reindex_edges;  // per exec-layer
  std::uint64_t total_vertices = 0;
  std::size_t feature_dim = 0;
  /// Rows served by a GPU-resident embedding cache (PaGraph-style
  /// extension): lookup and transfer cover only the misses.
  std::uint64_t cached_rows = 0;

  std::uint64_t lookup_rows() const noexcept {
    return total_vertices > cached_rows ? total_vertices - cached_rows : 0;
  }
  double miss_fraction() const noexcept {
    return total_vertices == 0
               ? 1.0
               : static_cast<double>(lookup_rows()) /
                     static_cast<double>(total_vertices);
  }
  std::size_t embedding_bytes() const noexcept {
    return lookup_rows() * feature_dim * sizeof(float);
  }
  std::size_t structure_bytes() const noexcept {
    std::size_t b = 0;
    for (std::uint64_t e : layer_reindex_edges)
      b += (2 * e + total_vertices) * sizeof(std::uint32_t);
    return b;
  }
};

/// Derive the workload counts from an actual sampled batch.
BatchWorkload workload_from(const sampling::SampledBatch& batch,
                            std::size_t feature_dim);

}  // namespace gt::pipeline
