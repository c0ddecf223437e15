#include "workload/collectives.hpp"

#include <map>

#include "support/error.hpp"

namespace iw::workload {
namespace {

/// Lowest set bit; for rank 0 (the root) returns a value above any rank.
int lowbit(int r, int ranks) { return r == 0 ? 2 * ranks : r & (-r); }

/// Children of `rank` in the binomial tree rooted at 0.
std::vector<int> tree_children(int rank, int ranks) {
  std::vector<int> children;
  for (int m = 1; m < lowbit(rank, ranks); m <<= 1) {
    const int child = rank + m;
    if (child < ranks) children.push_back(child);
  }
  return children;
}

/// Parent of `rank` (rank 0 has none).
int tree_parent(int rank) { return rank - (rank & (-rank)); }

}  // namespace

int collective_tag_span(CollectiveKind kind, int ranks) {
  switch (kind) {
    case CollectiveKind::none: return 0;
    case CollectiveKind::barrier: return 2;  // up tag + down tag
    case CollectiveKind::allreduce: return 2 * (ranks - 1);
    case CollectiveKind::bcast: return 1;
  }
  return 0;
}

void append_barrier(mpi::Program& prog, int rank, int ranks, int tag_base) {
  IW_REQUIRE(ranks >= 1, "barrier needs at least one rank");
  IW_REQUIRE(rank >= 0 && rank < ranks, "rank out of range");
  if (ranks == 1) return;
  const int up_tag = tag_base;
  const int down_tag = tag_base + 1;
  const auto children = tree_children(rank, ranks);

  // Up-sweep: wait for all children, then notify the parent.
  for (const int child : children) prog.irecv(child, 1, up_tag);
  if (!children.empty()) prog.waitall();
  if (rank != 0) {
    prog.isend(tree_parent(rank), 1, up_tag);
    prog.irecv(tree_parent(rank), 1, down_tag);
    prog.waitall();
  }
  // Down-sweep: release the children.
  for (const int child : children) prog.isend(child, 1, down_tag);
  if (!children.empty()) prog.waitall();
}

void append_ring_allreduce(mpi::Program& prog, int rank, int ranks,
                           std::int64_t bytes, int tag_base) {
  IW_REQUIRE(ranks >= 2, "ring allreduce needs at least two ranks");
  IW_REQUIRE(rank >= 0 && rank < ranks, "rank out of range");
  IW_REQUIRE(bytes >= 0, "payload must be non-negative");
  const std::int64_t chunk = std::max<std::int64_t>(1, bytes / ranks);
  const int right = (rank + 1) % ranks;
  const int left = (rank - 1 + ranks) % ranks;
  // Reduce-scatter then allgather: 2(n-1) synchronous neighbor rounds.
  for (int round = 0; round < 2 * (ranks - 1); ++round) {
    prog.isend(right, chunk, tag_base + round);
    prog.irecv(left, chunk, tag_base + round);
    prog.waitall();
  }
}

void append_bcast(mpi::Program& prog, int rank, int ranks, std::int64_t bytes,
                  int tag_base) {
  IW_REQUIRE(ranks >= 1, "broadcast needs at least one rank");
  IW_REQUIRE(rank >= 0 && rank < ranks, "rank out of range");
  if (ranks == 1) return;
  // Receive from the parent first (except the root), then forward down.
  if (rank != 0) {
    prog.irecv(tree_parent(rank), bytes, tag_base);
    prog.waitall();
  }
  for (const int child : tree_children(rank, ranks)) {
    prog.isend(child, bytes, tag_base);
  }
  if (!tree_children(rank, ranks).empty()) prog.waitall();
}

std::vector<mpi::Program> build_ring_with_collective(
    const RingSpec& spec, CollectiveKind kind, int collective_every,
    std::int64_t collective_bytes, std::span<const DelaySpec> delays) {
  IW_REQUIRE(collective_every >= 1, "collective interval must be >= 1");

  std::map<std::pair<int, int>, Duration> delay_at;
  for (const auto& d : delays) {
    IW_REQUIRE(d.rank >= 0 && d.rank < spec.ranks, "delay rank out of range");
    IW_REQUIRE(d.step >= 0 && d.step < spec.steps, "delay step out of range");
    delay_at[{d.rank, d.step}] += d.duration;
  }

  // Tag layout: even tags for the halo exchange of each step, a disjoint
  // band above `spec.steps` for collectives (span per invocation).
  const int span = std::max(1, collective_tag_span(kind, spec.ranks));

  std::vector<mpi::Program> programs(static_cast<std::size_t>(spec.ranks));
  for (int rank = 0; rank < spec.ranks; ++rank) {
    auto& prog = programs[static_cast<std::size_t>(rank)];
    const auto sends = send_peers(spec, rank);
    const auto recvs = recv_peers(spec, rank);
    for (int step = 0; step < spec.steps; ++step) {
      prog.mark();
      prog.compute(spec.texec, spec.noisy);
      if (const auto it = delay_at.find({rank, step}); it != delay_at.end())
        prog.inject(it->second);
      for (const int peer : sends) prog.isend(peer, spec.msg_bytes, step);
      for (const int peer : recvs) prog.irecv(peer, spec.msg_bytes, step);
      prog.waitall();

      if ((step + 1) % collective_every == 0 &&
          kind != CollectiveKind::none) {
        const int tag_base = spec.steps + (step / collective_every) * span;
        switch (kind) {
          case CollectiveKind::barrier:
            append_barrier(prog, rank, spec.ranks, tag_base);
            break;
          case CollectiveKind::allreduce:
            append_ring_allreduce(prog, rank, spec.ranks, collective_bytes,
                                  tag_base);
            break;
          case CollectiveKind::bcast:
            append_bcast(prog, rank, spec.ranks, collective_bytes, tag_base);
            break;
          case CollectiveKind::none:
            break;
        }
      }
    }
  }
  return programs;
}

}  // namespace iw::workload
