// Campaign CLI: run a named sweep scenario across a worker pool and stream
// structured results to CSV / JSON-Lines files.
//
//   ./build/examples/sweep_runner --list
//   ./build/examples/sweep_runner --scenario=speed_vs_delay --threads=8
//       --csv=speed.csv --jsonl=speed.jsonl
//   ./build/examples/sweep_runner --scenario=decay_vs_size
//       --msg-bytes=8192,65536,1048576 --noise=5,25 --seed=7
//   ./build/examples/sweep_runner --scenario=nic_injection_sweep
//       --nic-depth=0,4,1 --rdv-flavor=two_sided,rdma_put
//
// Every axis of the IW_SWEEP_AXES registry is overridable as a
// comma-separated list under its declared flag (--delay-ms, --msg-bytes,
// --np, --ppn, --noise, --direction, --boundary, --nic-depth,
// --eager-credits, --rdv-flavor); scalar overrides (--steps, --seed) apply
// to the whole campaign. An N-thread run writes byte-identical output to
// the single-threaded run: point seeds are fixed at expansion and records
// are delivered to the sinks in point order.
//
// Observability:
//   --progress             live status line (done/total, elapsed, ETA,
//                          points/s); silent when stdout is not a TTY or
//                          under --quiet
//   --metrics-json=m.json  unified metrics snapshot of the campaign
//   --trace=<scenario:point>   replay one expanded point with the protocol
//                          flight recorder armed and write a Chrome-trace
//                          JSON (chrome://tracing, Perfetto); --trace-out
//                          overrides the output path
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trace_io.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "sweep/axes.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"

namespace {

using namespace iw;

void print_catalog() {
  TextTable table;
  table.columns({"scenario", "points", "paper", "what it shows"});
  for (const sweep::Scenario& s : sweep::scenario_catalog())
    table.add_row({s.name, std::to_string(s.spec.points()), s.paper_ref,
                   s.summary});
  std::cout << table.render()
            << "\nrun one with: sweep_runner --scenario=<name> [--threads=N] "
               "[--csv=out.csv] [--jsonl=out.jsonl]\n";
}

/// --trace=<scenario:point>: replays one expanded point with the flight
/// recorder armed and writes a Chrome-trace JSON.
int run_traced_point(const std::string& arg, const Cli& cli) {
  const auto colon = arg.find(':');
  if (colon == std::string::npos || colon + 1 == arg.size())
    throw std::runtime_error("--trace wants <scenario>:<point-index>");
  const std::string name = arg.substr(0, colon);
  std::size_t index = 0;
  try {
    index = std::stoul(arg.substr(colon + 1));
  } catch (const std::logic_error&) {
    throw std::runtime_error("--trace: bad point index in '" + arg + "'");
  }
  // The campaign's own resolution, so a traced point sees exactly the
  // campaign's expansion.
  const auto points = sweep::expand(sweep::resolve_scenario(name, cli).spec);
  if (index >= points.size())
    throw std::runtime_error(
        "--trace: point " + std::to_string(index) + " out of range ('" +
        name + "' expands to " + std::to_string(points.size()) + " points)");

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  core::WaveExperiment exp = points[index].exp;
  exp.cluster.tracer = &tracer;
  exp.cluster.metrics = &metrics;
  const core::WaveResult result = core::run_wave_experiment(exp);

  const std::string out = cli.get_or(
      "trace-out", name + "_point" + std::to_string(index) + ".trace.json");
  core::write_chrome_trace(result.trace, tracer.drain_ordered(), out);
  std::cout << "traced '" << name << "' point " << index << ": "
            << tracer.size() << " protocol records (" << tracer.dropped()
            << " dropped)\nwrote Chrome trace: " << out << '\n'
            << "metrics: " << metrics.snapshot().to_json() << '\n';
  return 0;
}

int sweep_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  std::vector<std::string> known_flags = {
      "scenario", "list",  "threads",  "csv",          "jsonl",
      "steps",    "seed",  "quiet",    "progress",     "metrics-json",
      "trace",    "trace-out"};
  for (std::string& flag : sweep::axis_cli_flags())
    known_flags.push_back(std::move(flag));
  cli.allow_only(known_flags);

  if (cli.has("list")) {
    print_catalog();
    return 0;
  }
  if (const auto traced = cli.get("trace")) return run_traced_point(*traced, cli);
  if (!cli.has("scenario")) {
    print_catalog();
    return 2;
  }

  const sweep::Scenario scenario =
      sweep::resolve_scenario(cli.get_or("scenario", std::string{}), cli);
  const int threads = cli.get_int_or("threads", 1);
  const bool quiet = cli.has("quiet");

  const auto points = sweep::expand(scenario.spec);
  std::cout << "campaign '" << scenario.name << "' (" << scenario.paper_ref
            << "): " << points.size() << " points, " << threads
            << (threads == 1 ? " thread\n" : " threads\n");

  const auto csv_path = cli.get("csv");
  const auto jsonl_path = cli.get("jsonl");
  std::unique_ptr<sweep::CsvSink> csv;
  std::unique_ptr<sweep::JsonlSink> jsonl;
  if (csv_path) csv = std::make_unique<sweep::CsvSink>(*csv_path);
  if (jsonl_path) jsonl = std::make_unique<sweep::JsonlSink>(*jsonl_path);

  sweep::RunnerOptions options;
  options.threads = threads;
  if (csv) options.sinks.push_back(csv.get());
  if (jsonl) options.sinks.push_back(jsonl.get());
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  // --progress upgrades the every-10-points stderr counter to a live status
  // line; it stays silent when stdout is not a TTY (piped/redirected runs)
  // or under --quiet, so machine-read output never sees control characters.
  const bool live_progress =
      cli.has("progress") && !quiet && ::isatty(STDOUT_FILENO) != 0;
  if (live_progress) {
    const auto begin = std::chrono::steady_clock::now();
    options.on_progress = [begin](std::size_t done, std::size_t total) {
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - begin)
                                 .count();
      const double rate =
          elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
      const double eta =
          rate > 0.0 ? static_cast<double>(total - done) / rate : 0.0;
      std::cout << "\r  " << done << '/' << total << " points | elapsed "
                << fmt_fixed(elapsed, 1) << " s | eta " << fmt_fixed(eta, 1)
                << " s | " << fmt_fixed(rate, 1) << " points/s   ";
      if (done == total) std::cout << '\n';
      std::cout << std::flush;
    };
  } else if (!quiet) {
    options.on_progress = [](std::size_t done, std::size_t total) {
      if (done == total || done % 10 == 0)
        std::cerr << "\r  " << done << "/" << total << " points" << std::flush;
    };
  }

  const sweep::CampaignResult result = sweep::run_campaign(points, options);
  if (!quiet && !live_progress) std::cerr << '\n';

  std::cout << '\n'
            << sweep::render_summary(result.records) << '\n'
            << result.records.size() << "/" << result.total_points
            << " points in " << fmt_fixed(result.seconds, 2) << " s ("
            << fmt_fixed(result.points_per_sec(), 1) << " points/s)\n";
  if (csv_path) std::cout << "wrote CSV:   " << *csv_path << '\n';
  if (jsonl_path) std::cout << "wrote JSONL: " << *jsonl_path << '\n';
  if (const auto metrics_path = cli.get("metrics-json")) {
    std::ofstream out(*metrics_path);
    if (!out)
      throw std::runtime_error("cannot open metrics output: " + *metrics_path);
    out << metrics.snapshot().to_json() << '\n';
    std::cout << "wrote metrics: " << *metrics_path << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return sweep_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "sweep_runner") << ": error: "
              << e.what() << '\n';
    return 1;
  }
}
