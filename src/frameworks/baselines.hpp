// Baseline frameworks of the evaluation (§III, §VI):
//  * PyG        — DL-approach compute (sparse2dense gathers + scatter ops),
//                 single-threaded preprocessing, no compute overlap.
//  * PyG-MT     — same compute, preprocessing fanned out over a thread pool
//                 (the paper's modified PyG for Fig 19).
//  * DGL        — Graph-approach compute: COO input, GPU-side COO->CSR
//                 translation before SpMM (and COO->CSC before backward),
//                 edge-wise scheduling with atomics; multi-threaded
//                 preprocessing overlapped with GPU compute.
//  * GNNAdvisor — neighbor-group aggregation with atomic merges; no edge
//                 weighting mechanism (falls back to DL ops); no
//                 preprocessing pipeline.
//  * SALIENT    — PyG-style compute with pinned-memory, chunk-pipelined
//                 transfers overlapped with compute.
//
// All baselines execute aggregation-first by default; the explicit
// combination-first order is honored only for unweighted models (their
// user-level code cannot hoist a transform past vector edge weights).
#pragma once

#include "frameworks/framework.hpp"
#include "pipeline/plan.hpp"

namespace gt::frameworks {

struct BaselineOptions {
  enum class Compute { kDl, kGraph, kAdvisor };
  Compute compute = Compute::kDl;
  pipeline::PreprocStrategy strategy = pipeline::PreprocStrategy::kSerial;
  bool pinned_memory = false;
  bool pipelined_kt = false;
  bool overlap_compute = false;
};

class BaselineFramework : public Framework {
 public:
  BaselineFramework(std::string name, BaselineOptions options)
      : name_(std::move(name)), options_(options) {}

  std::string name() const override { return name_; }

 protected:
  void prepare(const Dataset& data, const models::GnnModelConfig& model,
               const BatchSpec& spec, pipeline::BatchContext& ctx) override;
  RunReport execute(const Dataset& data, const models::GnnModelConfig& model,
                    models::ModelParams& params, const BatchSpec& spec,
                    pipeline::BatchContext& ctx) override;

 private:
  sampling::ReindexFormats reindex_formats() const;
  pipeline::PlanOptions plan_options() const;

  std::string name_;
  BaselineOptions options_;
};

BaselineOptions pyg_options();
BaselineOptions pyg_mt_options();
BaselineOptions dgl_options();
BaselineOptions gnnadvisor_options();
BaselineOptions salient_options();

}  // namespace gt::frameworks
