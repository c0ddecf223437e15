#include "core/idle_wave.hpp"

#include <algorithm>
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

/// first_wait() memoized per physical row: on a trace whose silent ranks
/// share a handful of rows through Trace::alias_rank (fast-forward), each
/// shared row is scanned once per probe instead of once per rank, and a
/// rank the wave never reaches costs a row-index load and a table lookup.
/// Keyed by row index, so a hit is exact and the table is as long as the
/// trace has rows: the active set plus one row per residue class there,
/// one row per rank on a full trace.
class RowMemo {
 public:
  explicit RowMemo(const mpi::Trace& trace) : table_(trace.rows()) {}

  FirstWait get(const mpi::Trace& trace, int rank, const WaveProbe& probe) {
    Entry& e = table_[trace.row_of(rank)];
    if (!e.known) e = Entry{true, first_wait(trace.segments(rank), probe)};
    return e.result;
  }

 private:
  struct Entry {
    bool known = false;
    FirstWait result;
  };
  std::vector<Entry> table_;
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

WaveAnalysis analyze_wave(const mpi::Trace& trace, const WaveProbe& probe) {
  WaveAnalysis analysis;
  const int n = trace.ranks();

  int max_hops = probe.max_hops;
  if (max_hops <= 0)
    max_hops = n - 1;  // open: clipped at the edge; periodic: once around

  IW_REQUIRE(probe.injection_rank >= 0 && probe.injection_rank < n,
             "injection rank out of range");
  IW_REQUIRE(probe.direction == 1 || probe.direction == -1,
             "direction must be +-1");
  RowMemo memo(trace);

  // One rank per hop under the boundary rule; the modulo runs only when
  // the walk wraps, since at machine scale this loop visits every rank.
  bool front_broken = false;
  int rank = probe.injection_rank;
  for (int hops = 1; hops <= max_hops; ++hops) {
    rank = workload::wrap_or_clip(rank + probe.direction, n, probe.boundary);
    if (rank < 0) break;  // walked off an open chain
    analysis.hops_probed = hops;

    const FirstWait wait = memo.get(trace, rank, probe);
    if (!wait.reached) {
      front_broken = true;
      continue;
    }
    if (!front_broken) ++analysis.survival_hops;
    analysis.front.push_back(
        WaveObservation{rank, hops, wait.arrival, wait.amplitude});
  }

  std::vector<double> hops_x, arrival_y, amp_y;
  for (const auto& obs : analysis.front) {
    hops_x.push_back(static_cast<double>(obs.hops));
    arrival_y.push_back(obs.arrival.sec());
    amp_y.push_back(obs.amplitude.us());
  }

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
