// Randomized property tests for the discrete-event list scheduler: on
// arbitrary DAGs the computed schedule must respect dependencies, resource
// capacities, serial groups, and the classic lower bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/discrete_event.hpp"
#include "util/rng.hpp"

namespace gt {
namespace {

struct RandomDag {
  EventSim sim;
  SimResourceId cpu;
  SimGroupId group;
  std::vector<SimTaskId> ids;
  std::vector<double> durations;
  std::vector<std::vector<SimTaskId>> deps;
  std::vector<bool> in_group;
  std::size_t capacity;
};

RandomDag make_dag(std::uint64_t seed, std::size_t n, std::size_t capacity) {
  Xoshiro256 rng(seed);
  RandomDag dag;
  dag.capacity = capacity;
  dag.cpu = dag.sim.add_resource("cpu", capacity);
  dag.group = dag.sim.add_serial_group();
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<SimTaskId> deps;
    for (std::size_t j = 0; j < i; ++j)
      if (rng.uniform(10) == 0) deps.push_back(dag.ids[j]);
    const double dur = 1.0 + static_cast<double>(rng.uniform(20));
    const bool grouped = rng.uniform(5) == 0;
    std::string name = "t";  // `"t" + ...` trips GCC 12's -Wrestrict
    name += std::to_string(i);
    dag.ids.push_back(dag.sim.add_task(name, dur, dag.cpu, deps,
                                       grouped ? dag.group : kNoGroup));
    dag.durations.push_back(dur);
    dag.deps.push_back(std::move(deps));
    dag.in_group.push_back(grouped);
  }
  return dag;
}

class EventSimStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventSimStress, ScheduleIsFeasibleAndBounded) {
  RandomDag dag = make_dag(GetParam(), 120, 3);
  SimResult r = dag.sim.run();

  double total_work = 0.0;
  for (std::size_t i = 0; i < dag.ids.size(); ++i) {
    const auto& task = r.tasks[dag.ids[i]];
    // Duration honored.
    EXPECT_NEAR(task.finish - task.start, dag.durations[i], 1e-9);
    // Dependencies honored.
    for (SimTaskId d : dag.deps[i])
      EXPECT_GE(task.start + 1e-9, r.tasks[d].finish);
    total_work += dag.durations[i];
  }

  // Resource capacity never exceeded: sweep start/finish events.
  std::vector<std::pair<double, int>> events;
  for (SimTaskId id : dag.ids) {
    events.emplace_back(r.tasks[id].start, +1);
    events.emplace_back(r.tasks[id].finish, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // finishes release before starts
            });
  int running = 0;
  for (const auto& [t, delta] : events) {
    running += delta;
    EXPECT_LE(running, static_cast<int>(dag.capacity));
    EXPECT_GE(running, 0);
  }

  // Serial group members never overlap.
  std::vector<std::pair<double, double>> grouped;
  for (std::size_t i = 0; i < dag.ids.size(); ++i)
    if (dag.in_group[i])
      grouped.emplace_back(r.tasks[dag.ids[i]].start,
                           r.tasks[dag.ids[i]].finish);
  std::sort(grouped.begin(), grouped.end());
  for (std::size_t i = 1; i < grouped.size(); ++i)
    EXPECT_GE(grouped[i].first + 1e-9, grouped[i - 1].second);

  // Lower bounds: work conservation and the critical path.
  EXPECT_GE(r.makespan + 1e-9, total_work / static_cast<double>(dag.capacity));
  std::vector<double> earliest_finish(dag.ids.size(), 0.0);
  double critical = 0.0;
  for (std::size_t i = 0; i < dag.ids.size(); ++i) {
    double ready = 0.0;
    for (SimTaskId d : dag.deps[i])
      ready = std::max(ready, earliest_finish[d]);
    earliest_finish[i] = ready + dag.durations[i];
    critical = std::max(critical, earliest_finish[i]);
  }
  EXPECT_GE(r.makespan + 1e-9, critical);

  // Upper bound (Graham's list-scheduling bound is loose; the trivial
  // serialized bound must always hold).
  EXPECT_LE(r.makespan, total_work + 1e-9);

  // Determinism.
  RandomDag dag2 = make_dag(GetParam(), 120, 3);
  EXPECT_DOUBLE_EQ(dag2.sim.run().makespan, r.makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventSimStress,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace gt
