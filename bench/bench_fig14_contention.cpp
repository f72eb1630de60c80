// Fig 14: hash-table lock contention and the scheduler's relaxing.
// Paper: in the naive pipelined scheduler, contention between S subtasks
// costs 47.4% and between S and R subtasks 39.0% of preprocessing time;
// splitting the algorithm (A) from the hash updates (H) and serializing H
// removes it. Also reports *measured* contention from the real threaded
// executor.
#include "bench_util.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/plan.hpp"

int main() {
  using namespace gt;
  using pipeline::PreprocStrategy;
  bench::header("Fig 14", "relaxing hash-table contention");

  Table table({"dataset", "naive (us)", "relaxed (us)", "saved",
               "real contended locks"});
  std::vector<double> savings;
  for (const auto& name : {std::string("products"), std::string("papers"),
                           std::string("gowalla"), std::string("wiki-talk")}) {
    Dataset data = generate(name, bench::kSeed);
    sampling::ReindexFormats formats{.coo = true, .csr = true};
    pipeline::PreprocExecutor exec(data.csr, data.embeddings,
                                   data.spec.fanout, 2, bench::kSeed,
                                   formats);
    auto batch = exec.sampler().pick_batch(data.spec.batch_size, 0);
    pipeline::PreprocResult pre = exec.run_serial(batch);
    pipeline::BatchWorkload w =
        pipeline::workload_from(pre.batch, data.spec.feature_dim);

    pipeline::PlanOptions naive;
    naive.strategy = PreprocStrategy::kServiceWideNoRelax;
    naive.pinned_memory = naive.pipelined_kt = true;
    pipeline::PlanOptions relaxed = naive;
    relaxed.strategy = PreprocStrategy::kServiceWide;

    const double t_naive = plan_preprocessing(w, naive).makespan_us;
    const double t_relaxed = plan_preprocessing(w, relaxed).makespan_us;
    savings.push_back(1.0 - t_relaxed / t_naive);
    bench::row("contention saving from relaxed schedule", name, "", 0.0,
               1.0 - t_relaxed / t_naive, "fraction");

    // Real measurement: run the threaded executor and read the lock
    // counters of the striped hash table.
    ThreadPool pool(4);
    pipeline::PreprocResult par = exec.run_parallel(batch, pool, 8);
    table.add_row({name, Table::fmt(t_naive, 0), Table::fmt(t_relaxed, 0),
                   Table::fmt_pct(1.0 - t_relaxed / t_naive),
                   Table::fmt_count(par.hash_contended)});
  }
  table.print();
  std::printf("\n");
  bench::claim(
      "preprocessing time lost to contention (paper: 47.4% S-S + 39.0% "
      "S-R of preprocessing)",
      0.40, mean(savings), " fraction saved by relaxing");
  return 0;
}
