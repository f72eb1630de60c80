#include "frameworks/framework.hpp"

#include <stdexcept>

#include "frameworks/baselines.hpp"
#include "frameworks/common.hpp"
#include "frameworks/graphtensor.hpp"
#include "obs/trace.hpp"

namespace gt::frameworks {

const char* to_string(ShardStrategy s) {
  switch (s) {
    case ShardStrategy::kNone:           return "none";
    case ShardStrategy::kRange:          return "range";
    case ShardStrategy::kTensorParallel: return "tp";
  }
  return "?";
}

ShardStrategy parse_shard_strategy(const std::string& name) {
  if (name == "none") return ShardStrategy::kNone;
  if (name == "range") return ShardStrategy::kRange;
  if (name == "tp") return ShardStrategy::kTensorParallel;
  throw std::invalid_argument("unknown shard strategy '" + name +
                              "' (expected range or tp)");
}

obs::attrib::BatchTotals batch_totals(const RunReport& report) {
  obs::attrib::BatchTotals t;
  t.end_to_end_us = report.end_to_end_us;
  t.makespan_us = report.schedule.makespan_us;
  for (int i = 0; i < 4; ++i)
    t.stage_busy_us[i] = report.schedule.type_busy_us[i];
  t.fwp_us = report.fwp_us;
  t.bwp_us = report.bwp_us;
  return t;
}

// Out of line: the session's type is complete only here.
Framework::Framework() = default;
Framework::~Framework() = default;

detail::DeviceSession& Framework::device_session() {
  if (!session_)
    session_ =
        std::make_unique<detail::DeviceSession>(detail::eval_device_config());
  return *session_;
}

// The two phase scopes are plain Spans, not GT_OBS_STAGE sites: the
// reports' host fields need their durations in a GT_OBS_DISABLE build too.
void Framework::prepare_batch(const Dataset& data,
                              const models::GnnModelConfig& model,
                              const BatchSpec& spec,
                              pipeline::BatchContext& ctx) {
  obs::Span scope(obs::live::Stage::kPrepare, "frameworks.prepare_batch",
                  "frameworks");
  scope.arg("framework", name());
  scope.arg("batch", static_cast<std::int64_t>(spec.batch_index));
  prepare(data, model, spec, ctx);
  ctx.set_host_prepare_us(scope.stop());
}

RunReport Framework::execute_prepared(const Dataset& data,
                                      const models::GnnModelConfig& model,
                                      models::ModelParams& params,
                                      const BatchSpec& spec,
                                      pipeline::BatchContext& ctx) {
  obs::Span scope(obs::live::Stage::kExecute, "frameworks.execute_batch",
                  "frameworks");
  scope.arg("framework", name());
  scope.arg("batch", static_cast<std::int64_t>(spec.batch_index));
  RunReport report = execute(data, model, params, spec, ctx);
  report.framework = name();
  report.model = model.name;
  report.dataset = data.spec.name;
  report.host_prepare_us = ctx.host_prepare_us();
  report.host_execute_us = scope.stop();
  return report;
}

RunReport Framework::run_batch(const Dataset& data,
                               const models::GnnModelConfig& model,
                               models::ModelParams& params,
                               const BatchSpec& spec,
                               pipeline::BatchContext& ctx) {
  ctx.begin_batch();
  prepare_batch(data, model, spec, ctx);
  return execute_prepared(data, model, params, spec, ctx);
}

RunReport Framework::run_batch(const Dataset& data,
                               const models::GnnModelConfig& model,
                               models::ModelParams& params,
                               const BatchSpec& spec) {
  if (!scratch_ctx_)
    scratch_ctx_ = std::make_unique<pipeline::BatchContext>();
  return run_batch(data, model, params, spec, *scratch_ctx_);
}

std::unique_ptr<Framework> make_framework(const std::string& name) {
  if (name == "PyG")
    return std::make_unique<BaselineFramework>("PyG", pyg_options());
  if (name == "PyG-MT")
    return std::make_unique<BaselineFramework>("PyG-MT", pyg_mt_options());
  if (name == "DGL")
    return std::make_unique<BaselineFramework>("DGL", dgl_options());
  if (name == "GNNAdvisor")
    return std::make_unique<BaselineFramework>("GNNAdvisor",
                                               gnnadvisor_options());
  if (name == "SALIENT")
    return std::make_unique<BaselineFramework>("SALIENT", salient_options());
  if (name == "Base-GT")
    return std::make_unique<GraphTensorFramework>(
        GraphTensorFramework::Variant::kBase);
  if (name == "Dynamic-GT")
    return std::make_unique<GraphTensorFramework>(
        GraphTensorFramework::Variant::kDynamic);
  if (name == "Prepro-GT")
    return std::make_unique<GraphTensorFramework>(
        GraphTensorFramework::Variant::kPrepro);
  throw std::out_of_range("unknown framework: " + name);
}

const std::vector<std::string>& framework_names() {
  static const std::vector<std::string> names = {
      "PyG",     "PyG-MT",  "DGL",        "GNNAdvisor",
      "SALIENT", "Base-GT", "Dynamic-GT", "Prepro-GT"};
  return names;
}

}  // namespace gt::frameworks
