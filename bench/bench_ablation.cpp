// Ablations of the design choices DESIGN.md §5 calls out, plus the
// reproduction's extensions.
//  A. Thread scheduling at fixed format: dst-centric feature-wise (NAPA
//     Pull) vs neighbor-group/edge-wise aggregation on the same CSR —
//     isolates cache bloat + atomics from format translation.
//  B. DKP decision margin: regret of always-agg / always-comb / margined
//     dynamic placement.
//  C. Transfer path: pageable-bulk vs pinned-bulk vs pinned-pipelined.
//  D. Preprocessing chunk granularity (service-wide scheduler).
//  E. PaGraph-style embedding cache: hit rate and preprocessing makespan
//     vs cache budget (extension; paper §VII notes the locality
//     sensitivity — compare the skewed vs road-network rows).
#include "bench_util.hpp"
#include "frameworks/graphtensor.hpp"
#include "kernels/dl_approach.hpp"
#include "kernels/graph_approach.hpp"
#include "kernels/napa.hpp"
#include "pipeline/executor.hpp"

using namespace gt;

namespace {

void ablation_scheduling() {
  std::printf("-- A. aggregation scheduling at fixed CSR format --\n");
  Table table({"dataset", "feature-wise (us)", "group=4 (us)",
               "edge-wise SpMM (us)", "edge-wise cache x", "atomics"});
  for (const auto& name : {std::string("products"), std::string("wiki-talk")}) {
    Dataset data = generate(name, bench::kSeed);
    sampling::ReindexFormats formats{.coo = true, .csr = true};
    pipeline::PreprocExecutor exec(data.csr, data.embeddings,
                                   data.spec.fanout, 2, bench::kSeed,
                                   formats);
    auto pre = exec.run_serial(exec.sampler().pick_batch(300, 0));
    const auto& layer = pre.layers[0];

    gpusim::Device dev;
    auto x = kernels::upload_matrix(dev, pre.embeddings, "x");
    auto csr = kernels::upload_csr(dev, layer.csr, layer.n_dst);
    auto coo = kernels::upload_coo(dev, layer.coo, layer.n_dst);

    dev.clear_profile();
    kernels::napa::pull(dev, csr, x, gpusim::kInvalidBuffer,
                        kernels::AggMode::kMean,
                        kernels::EdgeWeightMode::kNone);
    const auto napa_stats = accumulate(dev.profile());

    dev.clear_profile();
    kernels::dl::aggregate_neighbor_groups(dev, csr, x,
                                           kernels::AggMode::kMean, 4);
    const auto group_stats = accumulate(dev.profile());

    dev.clear_profile();
    auto tcsr = kernels::graphsim::translate_to_csr(dev, coo);
    dev.clear_profile();  // exclude the translation: scheduling only
    kernels::graphsim::spmm_edgewise(dev, tcsr, x, gpusim::kInvalidBuffer,
                                     kernels::AggMode::kMean,
                                     kernels::EdgeWeightMode::kNone);
    const auto edge_stats = accumulate(dev.profile());

    bench::row("edge-wise / feature-wise aggregation latency", name, "", 0.0,
               edge_stats.latency_us / napa_stats.latency_us);
    table.add_row({name, Table::fmt(napa_stats.latency_us, 1),
                   Table::fmt(group_stats.latency_us, 1),
                   Table::fmt(edge_stats.latency_us, 1),
                   Table::fmt_ratio(
                       static_cast<double>(edge_stats.cache_loaded_bytes) /
                       napa_stats.cache_loaded_bytes),
                   Table::fmt_count(edge_stats.atomic_ops)});
  }
  table.print();
  std::printf("\n");
}

void ablation_dkp_margin() {
  std::printf("-- B. DKP placement policy regret (GCN layer 0, FWP+BWP) --\n");
  Table table({"dataset", "always-agg", "always-comb", "dynamic",
               "dynamic picked"});
  for (const auto& name : bench::all_datasets()) {
    Dataset data = generate(name, bench::kSeed);
    const auto model = bench::gcn_for(data);
    double t[2];
    int i = 0;
    for (auto order : {frameworks::OrderPolicy::kAggregationFirst,
                       frameworks::OrderPolicy::kCombinationFirst}) {
      models::ModelParams params(model, data.spec.feature_dim, 7);
      auto fw = frameworks::make_framework("Base-GT");
      frameworks::BatchSpec spec;
      spec.order = order;
      t[i++] = fw->run_batch(data, model, params, spec).kernel_total_us;
    }
    frameworks::GraphTensorFramework dyn(
        frameworks::GraphTensorFramework::Variant::kDynamic);
    models::ModelParams params(model, data.spec.feature_dim, 7);
    frameworks::BatchSpec spec;
    spec.order = frameworks::OrderPolicy::kDynamic;
    frameworks::RunReport last;
    for (std::uint64_t b = 0;
         b <= frameworks::GraphTensorFramework::kFitAfterBatches; ++b) {
      spec.batch_index = b;
      last = dyn.run_batch(data, model, params, spec);
    }
    spec.batch_index = 0;
    last = dyn.run_batch(data, model, params, spec);
    const double best = std::min(t[0], t[1]);
    table.add_row(
        {name, Table::fmt_pct(t[0] / best - 1.0),
         Table::fmt_pct(t[1] / best - 1.0),
         Table::fmt_pct(last.kernel_total_us / best - 1.0),
         last.layer_comb_first_fwd[0] ? "comb-first" : "agg-first"});
  }
  table.print();
  std::printf("(percentages are regret vs the per-dataset oracle)\n\n");
}

void ablation_transfer() {
  std::printf("-- C. transfer path (service-wide scheduler, wiki-talk) --\n");
  Dataset data = generate("wiki-talk", bench::kSeed);
  sampling::ReindexFormats formats{.csr = true};
  pipeline::PreprocExecutor exec(data.csr, data.embeddings, data.spec.fanout,
                                 2, bench::kSeed, formats);
  auto pre = exec.run_serial(exec.sampler().pick_batch(300, 0));
  pipeline::BatchWorkload w =
      pipeline::workload_from(pre.batch, data.spec.feature_dim);
  Table table({"path", "makespan (us)", "transfer busy (us)"});
  const struct {
    const char* label;
    bool pinned, pipelined;
  } rows[] = {{"pageable bulk", false, false},
              {"pinned bulk", true, false},
              {"pinned pipelined", true, true}};
  for (const auto& r : rows) {
    pipeline::PlanOptions opt;
    opt.strategy = pipeline::PreprocStrategy::kServiceWide;
    opt.pinned_memory = r.pinned;
    opt.pipelined_kt = r.pipelined;
    auto sched = plan_preprocessing(w, opt);
    table.add_row({r.label, Table::fmt(sched.makespan_us, 0),
                   Table::fmt(sched.type_busy_us[static_cast<int>(
                                  pipeline::TaskType::kTransfer)],
                              0)});
  }
  table.print();
  std::printf("\n");
}

void ablation_chunks() {
  std::printf("-- D. subtask granularity (service-wide, wiki-talk) --\n");
  Dataset data = generate("wiki-talk", bench::kSeed);
  sampling::ReindexFormats formats{.csr = true};
  pipeline::PreprocExecutor exec(data.csr, data.embeddings, data.spec.fanout,
                                 2, bench::kSeed, formats);
  auto pre = exec.run_serial(exec.sampler().pick_batch(300, 0));
  pipeline::BatchWorkload w =
      pipeline::workload_from(pre.batch, data.spec.feature_dim);
  Table table({"chunks/task", "makespan (us)"});
  for (std::size_t chunks : {1, 2, 4, 8, 12}) {
    pipeline::PlanOptions opt;
    opt.strategy = pipeline::PreprocStrategy::kServiceWide;
    opt.pinned_memory = opt.pipelined_kt = true;
    opt.cost.chunks_per_task = chunks;
    auto sched = plan_preprocessing(w, opt);
    table.add_row({std::to_string(chunks),
                   Table::fmt(sched.makespan_us, 0)});
  }
  table.print();
  std::printf("\n");
}

void ablation_cache() {
  std::printf("-- E. embedding-cache extension (Prepro-GT, GCN) --\n");
  Table table({"dataset", "cache", "hit rate", "preproc (us)", "e2e (us)"});
  for (const auto& name : {std::string("wiki-talk"), std::string("gowalla"),
                           std::string("roadnet-ca")}) {
    Dataset data = generate(name, bench::kSeed);
    const auto model = bench::gcn_for(data);
    const std::size_t table_bytes = static_cast<std::size_t>(
        data.coo.num_vertices) * data.spec.feature_dim * sizeof(float);
    for (double frac : {0.0, 0.02, 0.10}) {
      frameworks::GraphTensorFramework fw(
          frameworks::GraphTensorFramework::Variant::kPrepro);
      sampling::CacheConfig cache;  // default policy: degree-pinned static
      cache.budget_bytes = static_cast<std::size_t>(table_bytes * frac);
      fw.configure_cache(cache);
      models::ModelParams params(model, data.spec.feature_dim, 7);
      frameworks::BatchSpec spec;
      frameworks::RunReport r = fw.run_batch(data, model, params, spec);
      table.add_row({name, Table::fmt_pct(frac),
                     Table::fmt_pct(fw.last_cache_hit_rate()),
                     Table::fmt(r.preproc_makespan_us, 0),
                     Table::fmt(r.end_to_end_us, 0)});
    }
  }
  table.print();
  std::printf(
      "(roadnet-ca's near-uniform degrees defeat the cache — the PaGraph\n"
      "sensitivity the paper points out in SVII)\n");
}

}  // namespace

int main() {
  bench::header("Ablations", "design-choice studies (DESIGN.md S5)");
  ablation_scheduling();
  ablation_dkp_margin();
  ablation_transfer();
  ablation_chunks();
  ablation_cache();
  return 0;
}
