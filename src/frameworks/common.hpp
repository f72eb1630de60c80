// Shared machinery for framework implementations: preprocessing + schedule,
// device session setup (uploads), the loss head, SGD staging, and the one
// layer driver every backend runs its batch through (DESIGN.md §18).
#pragma once

#include <functional>

#include "frameworks/framework.hpp"
#include "frameworks/sharding.hpp"
#include "gpusim/device.hpp"
#include "kernels/common.hpp"
#include "kernels/napa.hpp"
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
};

/// One completed layer pass: its slice of the device profile and the
/// modeled µs the slice took.
struct LayerPass {
  LayerSlice slice;
  double us = 0.0;
};

/// A backend's layer kernels: NAPA with DKP placement (dfg::LayerExecutor),
/// the DL-approach or the Graph-approach. The callables keep whatever a
/// layer's backward needs from its forward.
struct LayerStep {
  /// Run layer `layer` on input `x`; returns its output buffer.
  std::function<gpusim::BufferId(std::uint32_t layer, gpusim::BufferId x)>
      forward;
  /// Backward through layer `layer` given its input `x` and the output
  /// gradient `dy`. `want_dx == false` on layer 0 (dx stays invalid).
  std::function<kernels::napa::DenseGrads(std::uint32_t layer,
                                          gpusim::BufferId x,
                                          gpusim::BufferId dy, bool want_dx)>
      backward;
  /// Free what the layer kept for its backward (not its output).
  std::function<void(std::uint32_t layer)> release;
};

/// The one layer loop of every backend. Runs FWP in its stage scope and
/// stops there for inference; otherwise runs the loss head and BWP in its
/// stage scope, staging each layer's SGD update into `sgd` and freeing dw,
/// db and dy before the layer's release. Fills the report's fwp_us, bwp_us
/// and loss, and appends one LayerPass per completed pass to `passes`, so
/// a GpuOomError leaves exactly the completed passes behind.
void run_layers(gpusim::Device& dev, gpusim::BufferId input,
                const models::GnnModelConfig& model, const BatchSpec& spec,
                pipeline::BatchContext& ctx, const LayerStep& step,
                SgdStage& sgd, RunReport& report,
                std::vector<LayerPass>& passes);

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
