// Integration: idle waves on 2-D decompositions — the paper's future-work
// direction beyond rings, implemented and characterized.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "core/idle_wave.hpp"
#include "support/stats.hpp"
#include "workload/grid2d.hpp"

namespace iw::core {
namespace {

TEST(Grid2DWaves, FrontExpandsAsManhattanBall) {
  // In 2-D the idle wave reaches rank (x, y) after |x-cx| + |y-cy| cycles:
  // arrival time is linear in the Manhattan distance from the injection.
  workload::Grid2DSpec spec;
  spec.px = 7;
  spec.py = 7;
  spec.steps = 18;
  spec.texec = milliseconds(2.0);
  spec.noisy = false;

  const int center = workload::grid_rank(spec, 3, 3);
  const std::vector<workload::DelaySpec> delays{
      {center, 0, milliseconds(12.0)}};
  const auto programs = workload::build_grid2d(spec, delays);

  ClusterConfig config;
  config.topo = net::TopologySpec::one_rank_per_node(spec.ranks());
  Cluster cluster(config);
  const auto trace = cluster.run(programs);

  std::vector<double> dist, arrival;
  for (int r = 0; r < spec.ranks(); ++r) {
    if (r == center) continue;
    const auto periods = idle_periods(trace, r, milliseconds(4.0));
    if (periods.empty()) continue;
    dist.push_back(workload::grid_distance(spec, center, r));
    arrival.push_back(periods.front().begin.ms());
  }
  ASSERT_GE(dist.size(), 30u) << "the wave must cover most of the grid";

  const LineFit fit = fit_line(dist, arrival);
  // One cycle (2 ms + comm) per Manhattan hop, high linearity.
  EXPECT_NEAR(fit.slope, 2.0, 0.25);
  EXPECT_GT(fit.r2, 0.97);
}

TEST(Grid2DWaves, CostIsStillOneDelay) {
  // Cancellation works in 2-D as well: the delay is paid once globally.
  workload::Grid2DSpec spec;
  spec.px = 6;
  spec.py = 6;
  spec.boundary = workload::Boundary::periodic;
  spec.steps = 15;
  spec.texec = milliseconds(2.0);
  spec.noisy = false;

  const std::vector<workload::DelaySpec> delays{{7, 0, milliseconds(9.0)}};
  ClusterConfig config;
  config.topo = net::TopologySpec::one_rank_per_node(spec.ranks());
  Cluster cluster(config);
  const auto trace = cluster.run(workload::build_grid2d(spec, delays));

  const Duration makespan = trace.makespan() - SimTime::zero();
  EXPECT_NEAR(makespan.ms() - (15 * 2.0 + 9.0), 0.0, 1.0);
}

TEST(Grid2DWaves, TwoInjectionsCancelIn2D) {
  workload::Grid2DSpec spec;
  spec.px = 6;
  spec.py = 6;
  spec.boundary = workload::Boundary::periodic;
  spec.steps = 15;
  spec.texec = milliseconds(2.0);
  spec.noisy = false;

  const std::vector<workload::DelaySpec> delays{
      {0, 0, milliseconds(6.0)},
      {workload::grid_rank(spec, 3, 3), 0, milliseconds(6.0)}};
  ClusterConfig config;
  config.topo = net::TopologySpec::one_rank_per_node(spec.ranks());
  Cluster cluster(config);
  const auto trace = cluster.run(workload::build_grid2d(spec, delays));

  // Nonlinear cancellation: cost = one delay, not two.
  const Duration makespan = trace.makespan() - SimTime::zero();
  EXPECT_NEAR(makespan.ms() - (15 * 2.0 + 6.0), 0.0, 1.0);
  for (int r = 0; r < spec.ranks(); ++r)
    EXPECT_LT(trace.total(r, mpi::SegKind::wait).ms(), 7.5) << "rank " << r;
}

}  // namespace
}  // namespace iw::core
