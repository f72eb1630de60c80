// Fig 12a: end-to-end latency decomposition under serialized preprocessing.
// Paper: GNN computing (FWP+BWP) is only 15.8% of the end-to-end latency;
// neighbor sampling dominates light-feature workloads while reindexing +
// lookup + transfer dominate heavy-feature ones. The S/R/K/T shares are
// the kernel ledger's stage terms (obs::attrib::stage_terms) over e2e, so
// with the compute share they add up to 100%; busy core-us, summed over
// the modeled cores, is its own column.
//
// Fig 12b (extension): the embedding cache hierarchy (DESIGN.md §15)
// attacks exactly the K+T half of that decomposition — the ablation below
// measures how much of it survives caching on a skewed vs a uniform heavy
// graph.
#include "bench_util.hpp"
#include "frameworks/graphtensor.hpp"

int main() {
  using namespace gt;
  using pipeline::TaskType;
  bench::header("Fig 12a", "end-to-end latency decomposition "
                           "(type-serialized multithreaded preprocessing, GCN)");

  Table table({"dataset", "S %", "R %", "K %", "T %", "compute %",
               "busy (core-us)", "e2e (us)"});
  const char* const share_rows[4] = {"S share of e2e", "R share of e2e",
                                     "K share of e2e", "T share of e2e"};
  std::vector<double> compute_shares;
  for (const auto& name : bench::all_datasets()) {
    Dataset data = generate(name, bench::kSeed);
    frameworks::BatchSpec spec;
    // Multithreaded preprocessing without compute overlap (the paper's
    // frameworks run S, R, K, T serialized by type but parallel inside).
    frameworks::RunReport r =
        bench::run_one("PyG-MT", data, bench::gcn_for(data), spec);
    const double e2e = r.end_to_end_us;
    const obs::attrib::StageTerms terms =
        obs::attrib::stage_terms(frameworks::batch_totals(r));
    // Serialized compute hides nothing, so this is (fwp + bwp) / e2e.
    const double compute = r.kernel_total_us / e2e;
    double busy = 0.0;
    for (double b : r.schedule.type_busy_us) busy += b;
    compute_shares.push_back(compute);
    bench::row("GNN compute share of e2e", name, "PyG-MT", 0.0, compute,
               "fraction");
    bench::row("e2e latency", name, "PyG-MT", 0.0, e2e, "us");
    std::vector<std::string> cells{name};
    for (int t = 0; t < 4; ++t) {
      const double share = terms.stage_us[t] / e2e;
      bench::row(share_rows[t], name, "PyG-MT", 0.0, share, "fraction");
      cells.push_back(Table::fmt_pct(share));
    }
    bench::row("preprocessing busy", name, "PyG-MT", 0.0, busy, "core-us");
    cells.push_back(Table::fmt_pct(compute));
    cells.push_back(Table::fmt(busy, 0));
    cells.push_back(Table::fmt(e2e, 0));
    table.add_row(std::move(cells));
  }
  table.print();
  std::printf("\n");
  bench::claim("GNN compute share of end-to-end", 0.158,
               mean(compute_shares), " fraction");
  std::printf(
      "Expected shape: S dominates the light-feature half (top rows),\n"
      "K+T dominate the heavy-feature half (bottom rows).\n\n");

  // ---- Fig 12b: embedding-cache ablation ---------------------------------
  bench::header("Fig 12b",
                "embedding cache ablation: K+T share of e2e, skewed vs "
                "uniform heavy graph (Prepro-GT, GCN, 4 batches)");
  struct CacheArm {
    const char* label;
    std::size_t budget;
    sampling::CachePolicy policy;
    bool prefetch;
  };
  const CacheArm arms[] = {
      {"off", 0, sampling::CachePolicy::kStatic, false},
      {"static", std::size_t{4} << 20, sampling::CachePolicy::kStatic, false},
      {"tiered", std::size_t{4} << 20, sampling::CachePolicy::kTiered, true},
  };
  Table cache_table({"dataset", "cache", "K+T %", "hit %", "e2e (us)"});
  double social_off = 0.0, social_tiered = 0.0;
  for (const char* name : {"social", "roadnet-ca"}) {
    Dataset data = generate(name, bench::kSeed);
    const models::GnnModelConfig model = bench::gcn_for(data);
    for (const CacheArm& arm : arms) {
      auto fw = frameworks::make_framework("Prepro-GT");
      if (arm.budget > 0) {
        sampling::CacheConfig cfg;
        cfg.budget_bytes = arm.budget;
        cfg.policy = arm.policy;
        cfg.prefetch = arm.prefetch;
        fw->configure_cache(cfg);
      }
      models::ModelParams params(model, data.spec.feature_dim, 7);
      double kt_us = 0.0, e2e_us = 0.0;
      for (std::uint64_t b = 0; b < 4; ++b) {
        frameworks::BatchSpec spec;
        spec.batch_index = b;
        const frameworks::RunReport r =
            fw->run_batch(data, model, params, spec);
        const obs::attrib::StageTerms terms =
            obs::attrib::stage_terms(frameworks::batch_totals(r));
        kt_us += terms.stage_us[static_cast<int>(TaskType::kLookup)] +
                 terms.stage_us[static_cast<int>(TaskType::kTransfer)];
        e2e_us += r.end_to_end_us;
      }
      const auto* gtfw =
          dynamic_cast<const frameworks::GraphTensorFramework*>(fw.get());
      const double hit_rate =
          gtfw != nullptr ? gtfw->cache_stats().hit_rate() : 0.0;
      const double kt_share = e2e_us > 0.0 ? kt_us / e2e_us : 0.0;
      const std::string tag = std::string("Prepro-GT/") + arm.label;
      bench::row("K+T share of e2e", name, tag, 0.0, kt_share, "fraction");
      bench::row("cache hit rate", name, tag, 0.0, hit_rate, "fraction");
      bench::row("e2e latency", name, tag, 0.0, e2e_us / 4.0, "us");
      if (std::string(name) == "social") {
        if (arm.budget == 0) social_off = kt_share;
        if (arm.policy == sampling::CachePolicy::kTiered)
          social_tiered = kt_share;
      }
      cache_table.add_row({name, arm.label, Table::fmt_pct(kt_share),
                           Table::fmt_pct(hit_rate),
                           Table::fmt(e2e_us / 4.0, 0)});
    }
  }
  cache_table.print();
  std::printf("\n");
  std::printf(
      "tiered cache on the skewed graph: K+T share %.1f%% -> %.1f%%\n"
      "Expected shape: on social (Zipf alpha 0.98) the hub-heavy vid "
      "stream\nmakes the static tier absorb most lookups and the K+T share "
      "drops;\non roadnet-ca (uniform degrees) there are no hubs to pin "
      "and the\ngap stays small.\n",
      100.0 * social_off, 100.0 * social_tiered);
  return 0;
}
