// Shared machinery for framework implementations: preprocessing + schedule,
// device session setup (uploads), the loss head, and SGD application.
#pragma once

#include "frameworks/framework.hpp"
#include "frameworks/sharding.hpp"
#include "gpusim/device.hpp"
#include "kernels/common.hpp"
#include "pipeline/executor.hpp"

namespace gt::frameworks::detail {

/// Device configuration used for every evaluation run: the scaled-down
/// RTX 3090 (DESIGN.md §2). Capacity is scaled with the datasets so that
/// the paper's livejournal/NGCF DL-approach out-of-memory reproduces.
gpusim::DeviceConfig eval_device_config();

/// Phase-1 shared helper: pick the batch deterministically, run the
/// context-backed serial preprocessing, derive the workload, and price the
/// schedule — all into `ctx`'s reusable storage (identical output to the
/// old by-value preprocess()).
void preprocess_into(const Dataset& data, const BatchSpec& spec,
                     std::uint32_t num_layers,
                     const sampling::ReindexFormats& formats,
                     const pipeline::PlanOptions& plan,
                     pipeline::BatchContext& ctx);

/// A backend's simulated device and one batch's uploads to it. Each
/// backend holds one (Framework::device_session) and every batch attempt
/// resets and refills it through open_session.
struct DeviceSession {
  gpusim::Device dev;
  gpusim::BufferId input = gpusim::kInvalidBuffer;  // layer-0 feature table
  std::vector<kernels::DeviceCsr> csr;              // per exec-layer
  std::vector<kernels::DeviceCsc> csc;
  std::vector<kernels::DeviceCoo> coo;
  std::vector<gpusim::BufferId> w;
  std::vector<gpusim::BufferId> b;
  std::size_t input_table_bytes = 0;

  explicit DeviceSession(gpusim::DeviceConfig cfg) : dev(std::move(cfg)) {}
};

/// Reset `session`'s device (gpusim::Device::reset) and upload one batch's
/// embeddings, structures, and parameters to it. Throws GpuOomError if the
/// batch does not fit. The device profile is cleared afterwards so the
/// kernel profile covers FWP/BWP only (Nsight-style measurement, §VI).
/// `upload_input == false` skips uploading the layer-0 feature table
/// (the caller assembles it, e.g. from an embedding cache).
void open_session(DeviceSession& session, const pipeline::PreprocResult& pre,
                  const models::ModelParams& params,
                  const sampling::ReindexFormats& formats,
                  bool upload_input = true);

/// The same on a newly built session, for callers that hold none.
std::unique_ptr<DeviceSession> open_session(
    const pipeline::PreprocResult& pre, const models::ModelParams& params,
    const sampling::ReindexFormats& formats, bool upload_input = true);

/// Softmax cross-entropy head over the batch's logits; labels are the
/// deterministic synthetic labels of the original dst vertices. Returns the
/// loss and uploads dL/dlogits as a device buffer. The logits download, the
/// label vector, and the gradient all live in `ctx` (arena views and reused
/// scratch, no heap Matrix), so a warm context allocates nothing here.
/// `ctx` must not be null.
float loss_head(gpusim::Device& dev, gpusim::BufferId logits,
                const pipeline::PreprocResult& data, std::uint32_t num_classes,
                std::uint64_t seed, gpusim::BufferId* dlogits,
                pipeline::BatchContext* ctx);

/// Buffers a batch's per-layer SGD updates so nothing touches the model
/// parameters until the batch reaches a reported outcome (success or OOM,
/// matching the kernel work that actually ran). An exception unwinding out
/// of execute_prepared mid-backward — e.g. a transient injected fault the
/// service will retry — discards the stage, so the retried batch starts
/// from exactly the parameters a fault-free run would see (the fault.hpp
/// determinism contract); a batch that degrades past the retry budget
/// likewise contributes nothing. The downloads are arena views, valid
/// until the context's next begin_batch — well past commit().
class SgdStage {
 public:
  SgdStage(models::ModelParams& params, float lr)
      : params_(&params), lr_(lr) {}

  /// Download `layer`'s dw/db into `ctx`'s arena and hold them.
  void stage(gpusim::Device& dev, std::uint32_t layer, gpusim::BufferId dw,
             gpusim::BufferId db, pipeline::BatchContext& ctx);

  /// Tensor-parallel commit mode: each layer's dw is applied as the
  /// per-device disjoint row slices `boundaries[layer]` describes
  /// ([devices+1] ascending offsets over dw's rows), in device order,
  /// inside the same transactional commit. Element updates are
  /// independent, so the result is bit-identical to the full-matrix
  /// update. `boundaries` must outlive commit(); nullptr resets.
  void set_device_row_slices(
      const std::vector<std::vector<std::size_t>>* boundaries) {
    row_slices_ = boundaries;
  }

  /// Apply every staged update in stage order and clear the stage.
  void commit();

 private:
  struct Pending {
    std::uint32_t layer;
    ConstMatrixView dw, db;
  };
  models::ModelParams* params_;
  float lr_;
  std::vector<Pending> pending_;
  const std::vector<std::vector<std::size_t>>* row_slices_ = nullptr;
};

/// Shared tail of the frameworks' GpuOomError handling: mark the report
/// OOM, keep the priced preprocessing schedule (the host-side work really
/// happened), and bump the OOM counter. The batch is *reported*, never
/// rethrown — the service's degradation accounting builds on this.
void record_oom(RunReport& report, const gpusim::GpuOomError& e,
                const pipeline::BatchContext& ctx);

/// Fill the RunReport's GPU-side fields from the device profile and
/// combine preprocessing + compute into the end-to-end latency. With
/// `ctx`, the report's arena counters are filled from the context. With
/// `shard` (a devices > 1 run's attributed execution), the multi-device
/// report fields are filled, comm.* metrics and per-device gauges are
/// emitted, the kernel ledger records per-device rows, and the end-to-end
/// latency overlaps the *group* makespan instead of the serial kernel
/// time — everything the single-device report derives stays untouched.
void finalize_report(RunReport& report, const gpusim::Device& dev,
                     const pipeline::PreprocSchedule& schedule,
                     bool overlap_compute,
                     const pipeline::BatchContext* ctx = nullptr,
                     const ShardedExecution* shard = nullptr);

}  // namespace gt::frameworks::detail
