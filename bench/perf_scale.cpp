// Machine-scale benchmark: events/sec and memory-per-rank across a rank
// ladder, A/B-ing the analytic fast-forward engine against full event
// simulation, with a BENCH_scale.json artifact tracking both from PR to PR.
//
// Each ladder point runs the scale_wave experiment shape twice — ffwd=off
// (every rank event-simulated) and ffwd=force (silent regions synthesized
// analytically) — and records wall-clock, engine events, events/sec, the
// simulated-time-skipped counter and the footprint gauge. At the smallest
// np the two traces are compared segment-for-segment: the speedup is only
// worth recording if the fast path is byte-identical where it overlaps.
// Both sides run on fresh clusters; each rung also times the ffwd point the
// way a sweep runs it, on a core::WaveRunner that has just run the 256-rank
// point (`ffwd_recycled_seconds`), so the reset between points shows. The
// transport rank states the ffwd run claims (`ffwd_rank_states`) follow the
// light cone, which does not grow with np, so the top rung may not claim
// more of them than the smallest.
//
// Flags: --json=<path> (default BENCH_scale.json), --quick (CI ladder,
//        tops out at 10240 ranks), --reps=N,
//        --baseline=<path> (regression gate: the top-rung speedup may lose
//        at most a third of the stored artifact's gain, and bytes/rank may
//        not grow past 1.25x).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "support/cli.hpp"
#include "sweep/scenario.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace iw;

/// Hard per-rank footprint budget for the fast-forward path at the top
/// rung: silent ranks must cost row descriptors and table slots, never
/// trace slabs. Violating this means rank state regressed to O(active)
/// per *silent* rank — exactly the scaling bug this bench exists to catch.
constexpr double kFfwdBudgetBytesPerRank = 1024.0;

struct Side {
  double seconds = std::numeric_limits<double>::infinity();
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  std::uint64_t ffwd_skips = 0;
  std::uint64_t ffwd_time_skipped_us = 0;
  double bytes_per_rank = 0.0;
  std::uint64_t rank_states = 0;  ///< transport states the run claimed
};

struct Rung {
  int np = 0;
  Side full;
  Side ffwd;
  double ffwd_recycled_seconds = 0.0;
  double speedup = 0.0;  ///< full.seconds / ffwd.seconds
  bool identity_checked = false;
  bool identical = true;
};

/// The scale_wave catalog scenario at one np — the bench measures exactly
/// the shape the golden corpus certifies.
core::WaveExperiment experiment_at(int np, core::FfwdMode mode) {
  const sweep::Scenario* scenario = sweep::find_scenario("scale_wave");
  if (scenario == nullptr)
    throw std::runtime_error("scale_wave scenario missing from the catalog");
  sweep::SweepSpec spec = scenario->spec;
  spec.np = {np};
  spec.ffwd = "off";  // mode is applied below, per side
  const auto points = sweep::expand(spec);
  core::WaveExperiment exp = points.front().exp;
  exp.ffwd = mode;
  return exp;
}

Side measure(int np, core::FfwdMode mode, int reps, mpi::Trace* keep_trace) {
  Side side;
  for (int r = 0; r < reps; ++r) {
    core::WaveExperiment exp = experiment_at(np, mode);
    obs::MetricsRegistry metrics;
    exp.cluster.metrics = &metrics;
    const auto begin = std::chrono::steady_clock::now();
    core::WaveResult result = core::run_wave_experiment(exp);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    side.events = result.events_processed;
    side.ffwd_skips = result.ffwd_skips;
    side.ffwd_time_skipped_us =
        static_cast<std::uint64_t>(result.ffwd_time_skipped.ns() / 1000);
    side.bytes_per_rank =
        metrics.gauge(obs::MetricId::mem_peak_bytes_per_rank);
    side.rank_states = static_cast<std::uint64_t>(
        metrics.gauge(obs::MetricId::pool_rank_states));
    if (seconds < side.seconds) {
      side.seconds = seconds;
      side.events_per_sec =
          seconds > 0 ? static_cast<double>(side.events) / seconds : 0.0;
    }
    if (keep_trace != nullptr && r == reps - 1)
      *keep_trace = std::move(result.trace);
  }
  return side;
}

/// Best-of-`reps` time of the ffwd point at `np` on a recycled runner that
/// has just run the 256-rank ffwd point: the sweep path, reset included.
double measure_recycled(int np, int reps) {
  const core::WaveExperiment small = experiment_at(256, core::FfwdMode::force);
  const core::WaveExperiment big = experiment_at(np, core::FfwdMode::force);
  core::WaveRunner runner;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    (void)runner.run(small);
    const auto begin = std::chrono::steady_clock::now();
    (void)runner.run(big);
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - begin)
                              .count());
  }
  return best;
}

int bench_main(int argc, char** argv) {
  if (const int rc = bench::refuse_if_instrumented("perf_scale")) return rc;
  const Cli cli(argc, argv);
  cli.allow_only({"json", "quick", "reps", "baseline"});
  const bool quick = cli.has("quick");
  const std::string json_path = cli.get_or("json", "BENCH_scale.json");
  const int reps =
      static_cast<int>(cli.get_or("reps", std::int64_t{quick ? 1 : 3}));

  // The quick ladder stays CI-sized; the full ladder ends on the paper's
  // machine-scale regime (a 100k-rank sweep point).
  const std::vector<int> ladder = quick ? std::vector<int>{1024, 10240}
                                        : std::vector<int>{1024, 10240, 102400};

  bench::print_header("perf_scale",
                      "machine-scale ladder: full event simulation vs "
                      "analytic fast-forward, events/sec and bytes/rank");

  std::vector<Rung> rungs;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    Rung rung;
    rung.np = ladder[i];
    // Identity is certified on the smallest rung, where the full trace is
    // cheap to hold twice; the larger rungs inherit the certification
    // (same code path, more silent ranks).
    const bool check_identity = i == 0;
    mpi::Trace full_trace(1), ffwd_trace(1);
    rung.full = measure(rung.np, core::FfwdMode::off, reps,
                        check_identity ? &full_trace : nullptr);
    rung.ffwd = measure(rung.np, core::FfwdMode::force, reps,
                        check_identity ? &ffwd_trace : nullptr);
    rung.ffwd_recycled_seconds = measure_recycled(rung.np, reps);
    rung.speedup =
        rung.ffwd.seconds > 0 ? rung.full.seconds / rung.ffwd.seconds : 0.0;
    if (check_identity) {
      rung.identity_checked = true;
      rung.identical = mpi::same_timelines(full_trace, ffwd_trace);
    }
    std::cout << "np=" << rung.np << ": full " << rung.full.events_per_sec
              << " ev/s (" << rung.full.seconds << " s, "
              << rung.full.bytes_per_rank << " B/rank), ffwd "
              << rung.ffwd.events_per_sec << " ev/s (" << rung.ffwd.seconds
              << " s, " << rung.ffwd.bytes_per_rank << " B/rank, "
              << rung.ffwd.rank_states << " rank states; "
              << rung.ffwd_recycled_seconds << " s recycled), speedup "
              << rung.speedup << "x"
              << (rung.identity_checked
                      ? (rung.identical ? ", traces identical"
                                        : ", traces DIVERGE")
                      : "")
              << "\n";
    rungs.push_back(rung);
  }

  const Rung& top = rungs.back();
  const bool identical = std::all_of(
      rungs.begin(), rungs.end(), [](const Rung& r) { return r.identical; });
  const bool budget_ok = top.ffwd.bytes_per_rank <= kFfwdBudgetBytesPerRank;
  // The >= 10x acceptance floor only binds at machine scale: the full
  // ladder's top rung is silent-dominated enough that anything less means
  // the fast path stopped skipping.
  const bool speedup_floor_ok = quick || top.speedup >= 10.0;
  // The fast path claims transport states for the ranks it touches, the
  // light cone and its rim, whose size does not depend on np.
  const bool states_ok = top.ffwd.rank_states <= rungs.front().ffwd.rank_states;
  std::cout << "\ntop rung np=" << top.np << ": speedup " << top.speedup
            << "x, ffwd footprint " << top.ffwd.bytes_per_rank
            << " B/rank (budget " << kFfwdBudgetBytesPerRank << ")\n";
  if (!budget_ok)
    std::cout << "*** ffwd bytes/rank BLEW THE BUDGET\n";
  if (!speedup_floor_ok)
    std::cout << "*** speedup below the 10x machine-scale floor\n";
  if (!states_ok)
    std::cout << "*** ffwd rank states grew with np: " << top.ffwd.rank_states
              << " at np=" << top.np << " vs " << rungs.front().ffwd.rank_states
              << " at np=" << rungs.front().np << "\n";

  std::ofstream out(json_path);
  if (!out) throw std::runtime_error("cannot write " + json_path);
  out.precision(6);
  out << std::fixed;
  out << "{\n"
      << "  \"bench\": \"perf_scale\",\n"
      << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"rungs\": [\n";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    out << "    {\"np\": " << r.np
        << ", \"full_seconds\": " << r.full.seconds
        << ", \"full_events\": " << r.full.events
        << ", \"full_events_per_sec\": " << r.full.events_per_sec
        << ", \"full_bytes_per_rank\": " << r.full.bytes_per_rank
        << ", \"ffwd_seconds\": " << r.ffwd.seconds
        << ", \"ffwd_events\": " << r.ffwd.events
        << ", \"ffwd_events_per_sec\": " << r.ffwd.events_per_sec
        << ", \"ffwd_bytes_per_rank\": " << r.ffwd.bytes_per_rank
        << ", \"ffwd_rank_states\": " << r.ffwd.rank_states
        << ", \"ffwd_recycled_seconds\": " << r.ffwd_recycled_seconds
        << ", \"ffwd_skips\": " << r.ffwd.ffwd_skips
        << ", \"ffwd_time_skipped_us\": " << r.ffwd.ffwd_time_skipped_us
        << ", \"speedup\": " << r.speedup
        << ", \"identity_checked\": " << (r.identity_checked ? "true" : "false")
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < rungs.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"summary\": {\n"
      << "    \"top_np\": " << top.np << ",\n"
      << "    \"top_speedup\": " << top.speedup << ",\n"
      << "    \"top_ffwd_bytes_per_rank\": " << top.ffwd.bytes_per_rank
      << ",\n"
      << "    \"identical\": " << (identical ? "true" : "false") << "\n"
      << "  }\n}\n";
  std::cout << "\nwrote " << json_path << "\n";

  // Regression gate against a stored artifact. Speedups are wall-clock
  // ratios on the same box, so a third of the stored gain absorbs noise;
  // the footprint gate is tighter because bytes/rank is deterministic.
  bool baseline_ok = true;
  if (const auto baseline_path = cli.get("baseline")) {
    const bench::JsonFile baseline(*baseline_path);
    const int baseline_np =
        static_cast<int>(baseline.number("summary.top_np"));
    const double baseline_speedup = baseline.number("summary.top_speedup");
    const double baseline_bytes_per_rank =
        baseline.number("summary.top_ffwd_bytes_per_rank");
    // Gate only between runs of the same scale: a quick ladder tops out
    // far below the baseline's 100k-rank rung, where both the speedup and
    // the amortized footprint are structurally smaller — comparing across
    // rungs would flag phantom regressions. CI's quick run therefore
    // skips loudly against the checked-in full-mode baseline while still
    // enforcing identity and the absolute footprint budget above.
    if (baseline_np != top.np) {
      std::cout << "baseline gate vs " << *baseline_path
                << ": SKIPPED (baseline top rung np=" << baseline_np
                << ", this run np=" << top.np
                << " — regenerate the baseline at this ladder to arm)\n";
    } else {
      const double floor = 1.0 + (baseline_speedup - 1.0) * 2.0 / 3.0;
      const double mem_ceiling = baseline_bytes_per_rank * 1.25;
      const bool speedup_ok = top.speedup >= floor;
      const bool mem_ok = top.ffwd.bytes_per_rank <= mem_ceiling;
      baseline_ok = speedup_ok && mem_ok;
      std::cout << "baseline gate vs " << *baseline_path << ": speedup "
                << top.speedup << "x vs floor " << floor << "x -> "
                << (speedup_ok ? "ok" : "REGRESSION") << "; bytes/rank "
                << top.ffwd.bytes_per_rank << " vs ceiling " << mem_ceiling
                << " -> " << (mem_ok ? "ok" : "REGRESSION") << "\n";
    }
  }

  const bool ok = identical && budget_ok && speedup_floor_ok && states_ok &&
                  baseline_ok;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return iw::bench::guarded_main(bench_main, argc, argv);
}
