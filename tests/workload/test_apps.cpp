// Tests for the STREAM-triad and LBM proxy workloads.
#include <gtest/gtest.h>

#include "workload/lbm.hpp"
#include "workload/stream_triad.hpp"

namespace iw::workload {
namespace {

TEST(StreamTriad, PaperWorkingSetSplitsEvenly) {
  StreamTriadSpec spec;
  spec.ranks = 20;
  // 5e7 elements * 24 B = 1.2 GB total -> 60 MB per rank.
  EXPECT_EQ(triad_bytes_per_rank(spec), 60'000'000);
  EXPECT_EQ(triad_flops_per_step(spec), 100'000'000);
}

TEST(StreamTriad, ProgramsHaveRingExchange) {
  StreamTriadSpec spec;
  spec.ranks = 4;
  spec.steps = 2;
  const auto programs = build_stream_triad(spec);
  ASSERT_EQ(programs.size(), 4u);
  // Step body: mark + mem_work + 2 sends + 2 recvs + waitall = 7 ops,
  // repeated once per step.
  EXPECT_EQ(programs[0].body().size(), 7u);
  EXPECT_EQ(programs[0].repeats(), 2);
  EXPECT_TRUE(std::holds_alternative<mpi::OpWaitAll>(programs[0].body()[6]));
  int sends = 0;
  for (const auto& op : programs[2].body())
    if (const auto* send = std::get_if<mpi::OpIsend>(&op)) {
      ++sends;
      EXPECT_TRUE(send->peer == 1 || send->peer == 3);  // closed ring
      EXPECT_EQ(send->bytes, spec.halo_bytes);
      EXPECT_EQ(send->tag, 0);  // the loop adds the step
    }
  EXPECT_EQ(sends, 2);  // per step
}

TEST(StreamTriad, SingleRankHasNoCommunication) {
  StreamTriadSpec spec;
  spec.ranks = 1;
  spec.steps = 3;
  const auto programs = build_stream_triad(spec);
  for (const auto& op : programs[0].body()) {
    EXPECT_FALSE(std::holds_alternative<mpi::OpIsend>(op));
    EXPECT_FALSE(std::holds_alternative<mpi::OpIrecv>(op));
  }
}

TEST(StreamTriad, TwoRankRingDeduplicatesPeer) {
  StreamTriadSpec spec;
  spec.ranks = 2;
  spec.steps = 1;
  const auto programs = build_stream_triad(spec);
  int sends = 0, recvs = 0;
  for (const auto& op : programs[0].body()) {
    sends += std::holds_alternative<mpi::OpIsend>(op);
    recvs += std::holds_alternative<mpi::OpIrecv>(op);
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
}

TEST(Lbm, PaperGeometryNumbers) {
  LbmSpec spec;  // defaults: 302^3, 100 ranks
  // Working set: 302^3 * 19 * 8 * 2 ~ 8.37 GB (paper: "more than 8 GB").
  EXPECT_GT(lbm_working_set(spec), std::int64_t{8'000'000'000});
  EXPECT_LT(lbm_working_set(spec), std::int64_t{9'000'000'000});
  // Halo: 302^2 * 5 pops * 8 B ~ 3.65 MB per face.
  EXPECT_NEAR(static_cast<double>(lbm_halo_bytes(spec)), 3.65e6, 0.1e6);
}

TEST(Lbm, CommunicationShareIsSubstantial) {
  // The paper reports >= 30% communication overhead. Check the ratio of
  // halo traffic (at ~3 GB/s) to slab traffic (at a 4 GB/s per-rank share)
  // lands in the right regime rather than being negligible.
  LbmSpec spec;
  const double t_comm =
      2.0 * static_cast<double>(lbm_halo_bytes(spec)) / 3.0e9;
  const double t_exec =
      static_cast<double>(lbm_bytes_per_rank(spec)) / 4.0e9;
  const double share = t_comm / (t_comm + t_exec);
  EXPECT_GT(share, 0.05);
  EXPECT_LT(share, 0.6);
}

TEST(Lbm, ProgramsUsePeriodicNeighbors) {
  LbmSpec spec;
  spec.ranks = 4;
  spec.nx = 8;
  spec.ny = 4;
  spec.nz = 4;
  spec.steps = 1;
  const auto programs = build_lbm(spec);
  ASSERT_EQ(programs.size(), 4u);
  std::vector<int> peers;
  for (const auto& op : programs[0].body())
    if (const auto* send = std::get_if<mpi::OpIsend>(&op))
      peers.push_back(send->peer);
  EXPECT_EQ(peers, (std::vector<int>{1, 3}));  // periodic wrap for rank 0
}

TEST(Lbm, Validation) {
  LbmSpec spec;
  spec.ranks = 1;
  EXPECT_THROW(build_lbm(spec), std::invalid_argument);
  spec = LbmSpec{};
  spec.ranks = 400;  // more ranks than outer layers
  EXPECT_THROW(build_lbm(spec), std::invalid_argument);
}

}  // namespace
}  // namespace iw::workload
