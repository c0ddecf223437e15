// Tests for the 2-D Cartesian halo-exchange workload.
#include <gtest/gtest.h>

#include <algorithm>

#include "workload/grid2d.hpp"

namespace iw::workload {
namespace {

Grid2DSpec spec_4x3() {
  Grid2DSpec spec;
  spec.px = 4;
  spec.py = 3;
  spec.steps = 2;
  return spec;
}

TEST(Grid2D, RankCoordinateRoundTrip) {
  const Grid2DSpec spec = spec_4x3();
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 3; ++y) {
      const int rank = grid_rank(spec, x, y);
      EXPECT_EQ(grid_coords(spec, rank), std::make_pair(x, y));
    }
  EXPECT_EQ(grid_rank(spec, 0, 0), 0);
  EXPECT_EQ(grid_rank(spec, 3, 2), 11);
}

TEST(Grid2D, InteriorHasFourNeighbors) {
  const Grid2DSpec spec = spec_4x3();
  const auto n = grid_neighbors(spec, grid_rank(spec, 1, 1));
  EXPECT_EQ(n.size(), 4u);
  // Order: +x, -x, +y, -y.
  EXPECT_EQ(n, (std::vector<int>{grid_rank(spec, 2, 1), grid_rank(spec, 0, 1),
                                 grid_rank(spec, 1, 2),
                                 grid_rank(spec, 1, 0)}));
}

TEST(Grid2D, OpenCornersHaveTwoNeighbors) {
  const Grid2DSpec spec = spec_4x3();
  EXPECT_EQ(grid_neighbors(spec, grid_rank(spec, 0, 0)).size(), 2u);
  EXPECT_EQ(grid_neighbors(spec, grid_rank(spec, 3, 2)).size(), 2u);
  EXPECT_EQ(grid_neighbors(spec, grid_rank(spec, 1, 0)).size(), 3u);
}

TEST(Grid2D, PeriodicEveryoneHasFour) {
  Grid2DSpec spec;
  spec.px = 4;
  spec.py = 4;
  spec.boundary = Boundary::periodic;
  for (int r = 0; r < spec.ranks(); ++r)
    EXPECT_EQ(grid_neighbors(spec, r).size(), 4u) << "rank " << r;
  // Wrap: (0,0)'s -x neighbor is (3,0).
  const auto n = grid_neighbors(spec, 0);
  EXPECT_NE(std::find(n.begin(), n.end(), grid_rank(spec, 3, 0)), n.end());
}

TEST(Grid2D, ManhattanDistances) {
  const Grid2DSpec spec = spec_4x3();
  EXPECT_EQ(grid_distance(spec, grid_rank(spec, 0, 0), grid_rank(spec, 3, 2)),
            5);
  EXPECT_EQ(grid_distance(spec, 5, 5), 0);

  Grid2DSpec per;
  per.px = 6;
  per.py = 6;
  per.boundary = Boundary::periodic;
  // Wrap shortens: (0,0) to (5,0) is 1 hop on a periodic grid.
  EXPECT_EQ(grid_distance(per, grid_rank(per, 0, 0), grid_rank(per, 5, 0)),
            1);
}

TEST(Grid2D, ProgramsHaveSymmetricExchange) {
  Grid2DSpec spec = spec_4x3();
  const auto programs = build_grid2d(spec);
  ASSERT_EQ(programs.size(), 12u);
  // The step body gives every neighbor one send and one recv, and runs
  // once per step.
  int sends = 0, recvs = 0, waits = 0;
  for (const auto& op : programs[5].body()) {
    sends += std::holds_alternative<mpi::OpIsend>(op);
    recvs += std::holds_alternative<mpi::OpIrecv>(op);
    waits += std::holds_alternative<mpi::OpWaitAll>(op);
  }
  EXPECT_EQ(sends, recvs);
  EXPECT_EQ(sends, 4);  // rank 5 = (1,1) is interior
  EXPECT_EQ(programs[5].repeats(), spec.steps);
  // All eight posts share the body's one WaitAll window, which closes it.
  EXPECT_EQ(waits, 1);
  EXPECT_TRUE(std::holds_alternative<mpi::OpWaitAll>(
      programs[5].body().back()));
}

TEST(Grid2D, DelayInjection) {
  Grid2DSpec spec = spec_4x3();
  const std::vector<DelaySpec> delays{{5, 1, milliseconds(7.0)}};
  const auto programs = build_grid2d(spec, delays);
  ASSERT_EQ(programs[5].injections().size(), 1u);
  EXPECT_EQ(programs[5].injections()[0].duration, milliseconds(7.0));
  EXPECT_TRUE(programs[4].injections().empty());
  // The injection point follows the compute and precedes the first send,
  // and only step 1 uses it.
  const auto& body = programs[5].body();
  ASSERT_GE(body.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<mpi::OpCompute>(body[1]));
  ASSERT_TRUE(std::holds_alternative<mpi::OpInject>(body[2]));
  EXPECT_TRUE(std::get<mpi::OpInject>(body[2]).point);
  EXPECT_TRUE(std::holds_alternative<mpi::OpIsend>(body[3]));
  EXPECT_EQ(programs[5].injections()[0].iteration, 1);
  for (const auto& op : programs[4].body())
    EXPECT_FALSE(std::holds_alternative<mpi::OpInject>(op));
}

TEST(Grid2D, Validation) {
  Grid2DSpec bad;
  bad.px = 1;
  bad.py = 1;
  EXPECT_THROW((void)build_grid2d(bad), std::invalid_argument);
  Grid2DSpec per;
  per.px = 2;
  per.py = 4;
  per.boundary = Boundary::periodic;
  EXPECT_THROW((void)build_grid2d(per), std::invalid_argument);
  const Grid2DSpec ok = spec_4x3();
  EXPECT_THROW((void)grid_rank(ok, 4, 0), std::invalid_argument);
  EXPECT_THROW((void)grid_coords(ok, 12), std::invalid_argument);
}

}  // namespace
}  // namespace iw::workload
