#include "core/idle_wave.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "support/error.hpp"

namespace iw::core {
namespace {

/// The wave as seen in one trace row: its first qualifying idle period.
struct FirstWait {
  bool reached = false;
  SimTime arrival;
  Duration amplitude;
};

/// First wave-attributable idle period, scanned straight off the trace (no
/// per-rank vector materialization — at machine scale the probe visits up
/// to every rank). The period must *end* after the injection began (a
/// begin-time comparison would race with per-rank noise skew: the neighbor
/// may enter its waiting phase microseconds before the delayed rank starts
/// the injected segment).
FirstWait first_wait(std::span<const mpi::Segment> row,
                     const WaveProbe& probe) {
  for (const auto& seg : row) {
    if (seg.kind != mpi::SegKind::wait) continue;
    if (seg.duration() < probe.min_idle) continue;
    if (seg.end <= probe.injection_time) continue;
    return {true, seg.begin, seg.duration()};
  }
  return {};
}

/// first_wait() memoized per physical row, for traces whose silent ranks
/// share a handful of rows through Trace::alias_rank (fast-forward): each
/// shared row is scanned once per probe instead of once per rank. The key
/// is the row's identity — data pointer and length — so a hit is exact by
/// construction. The table is direct-mapped on the row's slab position
/// divided by its length: the shared rows are imported back to back with
/// equal lengths, so up to kSlots of them take consecutive slots and never
/// evict each other. Any other collision only costs a rescan.
class RowMemo {
 public:
  FirstWait get(std::span<const mpi::Segment> row, const WaveProbe& probe) {
    if (row.empty()) return {};
    const auto position = reinterpret_cast<std::uintptr_t>(row.data()) /
                          sizeof(mpi::Segment);
    Entry& e = table_[(position / row.size()) % kSlots];
    if (e.data != row.data() || e.size != row.size())
      e = Entry{row.data(), row.size(), first_wait(row, probe)};
    return e.result;
  }

 private:
  static constexpr std::size_t kSlots = 128;
  struct Entry {
    const mpi::Segment* data = nullptr;
    std::size_t size = 0;
    FirstWait result;
  };
  std::array<Entry, kSlots> table_{};
};

}  // namespace

std::vector<IdlePeriod> idle_periods(const mpi::Trace& trace, int rank,
                                     Duration min_duration) {
  std::vector<IdlePeriod> periods;
  for (const auto& seg : trace.segments(rank)) {
    if (seg.kind != mpi::SegKind::wait) continue;
    if (seg.duration() < min_duration) continue;
    periods.push_back(IdlePeriod{rank, seg.begin, seg.end, seg.step});
  }
  return periods;
}

std::optional<int> rank_at_hops(int origin, int hops, int direction,
                                int ranks, workload::Boundary boundary) {
  IW_REQUIRE(ranks > 0, "need at least one rank");
  IW_REQUIRE(direction == 1 || direction == -1, "direction must be +-1");
  const int raw = origin + direction * hops;
  if (boundary == workload::Boundary::periodic)
    return ((raw % ranks) + ranks) % ranks;
  if (raw < 0 || raw >= ranks) return std::nullopt;
  return raw;
}

WaveAnalysis analyze_wave(const mpi::Trace& trace, const WaveProbe& probe) {
  WaveAnalysis analysis;
  const int n = trace.ranks();

  int max_hops = probe.max_hops;
  if (max_hops <= 0)
    max_hops = n - 1;  // open: clipped by rank_at_hops; periodic: once around

  // An open chain ends before max_hops when the injection sits nearer
  // its end.
  int hop_count = max_hops;
  if (probe.boundary == workload::Boundary::open)
    hop_count = std::min(hop_count, probe.direction > 0
                                        ? n - 1 - probe.injection_rank
                                        : probe.injection_rank);
  analysis.observations.reserve(
      static_cast<std::size_t>(std::max(0, hop_count)));
  std::optional<RowMemo> memo;
  if (trace.has_aliases()) memo.emplace();

  bool front_broken = false;
  for (int hops = 1; hops <= max_hops; ++hops) {
    const auto rank =
        rank_at_hops(probe.injection_rank, hops, probe.direction, n,
                     probe.boundary);
    if (!rank) break;  // walked off an open chain

    WaveObservation obs;
    obs.rank = *rank;
    obs.hops = hops;
    const auto row = trace.segments(*rank);
    const FirstWait wait =
        memo ? memo->get(row, probe) : first_wait(row, probe);
    obs.reached = wait.reached;
    obs.arrival = wait.arrival;
    obs.amplitude = wait.amplitude;
    if (obs.reached && !front_broken) ++analysis.survival_hops;
    if (!obs.reached) front_broken = true;
    analysis.observations.push_back(obs);
  }

  std::vector<double> hops_x, arrival_y, amp_y;
  for (const auto& obs : analysis.observations) {
    if (!obs.reached) continue;
    hops_x.push_back(static_cast<double>(obs.hops));
    arrival_y.push_back(obs.arrival.sec());
    amp_y.push_back(obs.amplitude.us());
  }

  analysis.reached_count = static_cast<int>(hops_x.size());

  analysis.front_fit = fit_line(hops_x, arrival_y);
  if (analysis.front_fit.valid && analysis.front_fit.slope > 0.0) {
    analysis.speed_ranks_per_sec = 1.0 / analysis.front_fit.slope;
    analysis.front_valid = true;
  }
  analysis.front_rmse_us = analysis.front_fit.rmse * 1e6;  // seconds -> us

  analysis.amplitude_fit = fit_line(hops_x, amp_y);
  if (analysis.amplitude_fit.valid)
    analysis.decay_us_per_rank = std::max(0.0, -analysis.amplitude_fit.slope);
  analysis.amplitude_rmse_us = analysis.amplitude_fit.rmse;

  return analysis;
}

}  // namespace iw::core
