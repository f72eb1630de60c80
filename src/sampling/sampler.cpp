#include "sampling/sampler.hpp"

#include <stdexcept>

#include <algorithm>
#include <cmath>

#include "fault/fault.hpp"
#include "util/rng.hpp"

namespace gt::sampling {

const char* to_string(SamplingPriority p) {
  switch (p) {
    case SamplingPriority::kUniformRandom:  return "uniform-random";
    case SamplingPriority::kDegreeWeighted: return "degree-weighted";
  }
  return "?";
}

Eid SampledBatch::layer_edges(std::uint32_t exec_layer) const {
  Eid total = 0;
  for (std::uint32_t h = 0; h < num_layers - exec_layer; ++h)
    total += hops[h].num_edges();
  return total;
}

NeighborSampler::NeighborSampler(const Csr& graph, std::uint32_t fanout,
                                 std::uint64_t seed,
                                 SamplingPriority priority)
    : graph_(graph), fanout_(fanout), seed_(seed), priority_(priority) {
  if (fanout == 0) throw std::invalid_argument("fanout must be > 0");
  if (priority_ == SamplingPriority::kDegreeWeighted) {
    // Importance weight of a candidate neighbor = its own in-degree + 1
    // (well-connected neighbors carry more aggregate signal).
    degree_weight_.resize(graph.num_vertices);
    for (Vid v = 0; v < graph.num_vertices; ++v)
      degree_weight_[v] = static_cast<double>(graph.degree(v)) + 1.0;
  }
}

HopEdges NeighborSampler::choose_neighbors(std::span<const Vid> frontier,
                                           std::uint32_t hop) const {
  HopEdges edges;
  choose_neighbors_into(frontier, hop, edges);
  return edges;
}

void NeighborSampler::choose_neighbors_into(std::span<const Vid> frontier,
                                            std::uint32_t hop,
                                            HopEdges& edges) const {
  edges.src.clear();
  edges.dst.clear();
  edges.src.reserve(frontier.size() * fanout_);
  edges.dst.reserve(frontier.size() * fanout_);
  std::vector<std::uint64_t> picks;  // reused across the frontier
  for (Vid v : frontier) {
    const auto neighbors = graph_.neighbors(v);
    if (neighbors.empty()) continue;
    // Unique-random sampling priority (paper cites GraphSAGE): a fresh
    // per-(vertex, hop) stream keeps results independent of threading.
    Xoshiro256 rng(derive_seed(
        seed_, (static_cast<std::uint64_t>(hop) << 32) | v));
    if (neighbors.size() <= fanout_) {
      for (Vid s : neighbors) {
        edges.src.push_back(s);
        edges.dst.push_back(v);
      }
    } else if (priority_ == SamplingPriority::kUniformRandom) {
      sample_without_replacement_into(rng, neighbors.size(), fanout_, picks);
      for (std::uint64_t idx : picks) {
        edges.src.push_back(neighbors[idx]);
        edges.dst.push_back(v);
      }
    } else {
      // Weighted sampling without replacement (Efraimidis-Spirakis keys):
      // pick the fanout largest u^(1/w); deterministic per (vertex, hop).
      std::vector<std::pair<double, Vid>> keyed;
      keyed.reserve(neighbors.size());
      for (Vid s : neighbors) {
        const double u = std::max(rng.uniform_real(), 1e-12);
        keyed.emplace_back(std::pow(u, 1.0 / degree_weight_[s]), s);
      }
      std::partial_sort(keyed.begin(), keyed.begin() + fanout_, keyed.end(),
                        [](const auto& a, const auto& b) {
                          return a.first > b.first;
                        });
      for (std::uint32_t k = 0; k < fanout_; ++k) {
        edges.src.push_back(keyed[k].second);
        edges.dst.push_back(v);
      }
    }
  }
}

void NeighborSampler::insert_vertices(VidHashTable& table,
                                      const HopEdges& edges) {
  for (Vid s : edges.src) table.insert_or_get(s);
}

SampledBatch NeighborSampler::sample(std::span<const Vid> batch,
                                     std::uint32_t layers,
                                     VidHashTable& table) const {
  SampledBatch out;
  sample_into(batch, layers, table, out);
  return out;
}

void NeighborSampler::sample_into(std::span<const Vid> batch,
                                  std::uint32_t layers, VidHashTable& table,
                                  SampledBatch& out) const {
  fault::check(fault::Site::kPreprocSample);
  if (layers == 0) throw std::invalid_argument("need at least one layer");
  if (table.size() != 0)
    throw std::invalid_argument("sample: hash table must start empty");

  out.num_layers = layers;
  out.batch.assign(batch.begin(), batch.end());
  out.set_sizes.clear();
  out.hops.resize(layers);  // per-hop edge vectors keep their capacity
  for (Vid v : batch) {
    bool is_new = false;
    table.insert_or_get(v, &is_new);
    if (!is_new)
      throw std::invalid_argument("sample: duplicate vertex in batch");
  }
  out.set_sizes.push_back(table.size());

  // Frontier for hop h: vertices first inserted during hop h-1.
  std::vector<Vid> frontier(batch.begin(), batch.end());
  for (std::uint32_t h = 1; h <= layers; ++h) {
    HopEdges& edges = out.hops[h - 1];
    choose_neighbors_into(frontier, h, edges);
    insert_vertices(table, edges);
    const Vid prev_size = out.set_sizes.back();
    const Vid new_size = table.size();
    out.set_sizes.push_back(new_size);
    // Next frontier: the newly discovered vertices, in insertion order.
    if (h < layers) {
      const auto order = table.insertion_order();
      frontier.assign(order.begin() + prev_size, order.begin() + new_size);
    }
  }
  table.insertion_order_into(out.vid_order);
}

std::vector<Vid> NeighborSampler::pick_batch(std::size_t batch_size,
                                             std::uint64_t batch_index) const {
  Xoshiro256 rng(derive_seed(seed_ ^ 0xb47cab1e, batch_index));
  const std::uint64_t n = graph_.num_vertices;
  auto picks = sample_without_replacement(
      rng, n, std::min<std::uint64_t>(batch_size, n));
  return {picks.begin(), picks.end()};
}

}  // namespace gt::sampling
