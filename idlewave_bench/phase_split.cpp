#include "phase_split.hpp"

#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/idle_wave.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "support/framing.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"
#include "verify/diff.hpp"
#include "verify/oracle.hpp"
#include "workload/grid2d.hpp"
#include "workload/ring.hpp"

namespace iw::bench {
namespace {

constexpr std::uint64_t kProfileSampleStream = 6ull << 32;

double us(double seconds) { return seconds * 1e6; }

/// Seconds one call of `fn` takes.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

/// Row of a per-point cost: the value is the mean (total / points), the
/// quantiles describe the per-point spread.
Row per_point_row(std::string layer, std::string metric, std::string unit,
                  const std::vector<double>& samples) {
  Row r = sample_row(std::move(layer), std::move(metric), std::move(unit),
                     samples);
  double total = 0.0;
  for (const double v : samples) total += v;
  r.value = samples.empty() ? 0.0 : total / static_cast<double>(samples.size());
  return r;
}

// ---- phase split ----------------------------------------------------------

/// One point replayed phase by phase, plus what the phases produced.
struct Split {
  double reset_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  double analyze_s = 0.0;
  core::WaveAnalysis up;
  core::WaveAnalysis down;
  Duration cycle;
  std::uint64_t events = 0;
  std::size_t calendar_peak = 0;
  mpi::Transport::Stats stats;
  double bytes_per_rank = 0.0;

  [[nodiscard]] double total_s() const {
    return reset_s + build_s + run_s + analyze_s;
  }
};

/// The wave analysis run_wave_experiment applies to a ring trace.
void analyze_ring(const mpi::Trace& trace, const core::WaveExperiment& exp,
                  Split& s) {
  if (exp.delays.empty()) return;
  const int inj = exp.delays.front().rank;
  core::WaveProbe probe;
  probe.injection_rank = inj;
  probe.injection_time = core::injection_begin(trace, inj);
  probe.min_idle = exp.min_idle;
  probe.boundary = exp.ring.boundary;
  const bool both_ways =
      exp.ring.direction == workload::Direction::bidirectional ||
      exp.cluster.transport.protocol_by_size(
          exp.ring.msg_bytes, exp.cluster.fabric.eager_limit_bytes) ==
          mpi::WireProtocol::rendezvous;
  const int n = exp.ring.ranks;
  if (exp.ring.boundary == workload::Boundary::periodic)
    probe.max_hops = both_ways ? std::max(1, n / 2 - 1) : n - 1;
  probe.direction = +1;
  s.up = core::analyze_wave(trace, probe);
  if (both_ways || exp.ring.boundary == workload::Boundary::open) {
    probe.direction = -1;
    s.down = core::analyze_wave(trace, probe);
  }
  if (exp.ring.steps >= 4)
    s.cycle = core::measured_cycle(trace, (inj + n / 2) % n, 1,
                                   exp.ring.steps - 1);
}

/// The wave analysis run_wave_experiment applies to a 2-D grid trace: probes
/// along the injection row, cycle from the farthest corner.
void analyze_grid(const mpi::Trace& trace, const core::WaveExperiment& exp,
                  Split& s) {
  if (exp.delays.empty()) return;
  const workload::Grid2DSpec& grid = *exp.grid;
  const int inj = exp.delays.front().rank;
  const auto [x0, y0] = workload::grid_coords(grid, inj);
  core::WaveProbe probe;
  probe.injection_rank = inj;
  probe.injection_time = core::injection_begin(trace, inj);
  probe.min_idle = exp.min_idle;
  probe.boundary = workload::Boundary::open;
  const int wrap_limit = grid.boundary == workload::Boundary::periodic
                             ? std::max(1, grid.px / 2 - 1)
                             : grid.px;
  probe.direction = +1;
  probe.max_hops = std::min(wrap_limit, grid.px - 1 - x0);
  if (probe.max_hops > 0) s.up = core::analyze_wave(trace, probe);
  probe.direction = -1;
  probe.max_hops = std::min(wrap_limit, x0);
  if (probe.max_hops > 0) s.down = core::analyze_wave(trace, probe);
  const int corners[] = {0, grid.ranks() - 1,
                         workload::grid_rank(grid, grid.px - 1, 0),
                         workload::grid_rank(grid, 0, grid.py - 1)};
  int far_rank = 0;
  int far_dist = -1;
  for (const int c : corners) {
    const int dist = workload::grid_distance(grid, inj, c);
    if (dist > far_dist) {
      far_dist = dist;
      far_rank = c;
    }
  }
  if (grid.steps >= 4)
    s.cycle = core::measured_cycle(trace, far_rank, 1, grid.steps - 1);
}

/// Cluster::reset -> build_ring/build_grid2d -> Cluster::run -> analyze_wave
/// for one (non-fast-forward) point, each phase in its own span. The cluster
/// is constructed on first use and recycled after, as WaveRunner does.
Split split_point(std::unique_ptr<core::Cluster>& cluster,
                  const core::WaveExperiment& exp, Spans& spans) {
  Split s;
  s.reset_s = timed([&] {
    SpanScope span(&spans, "core.Cluster::reset");
    if (cluster == nullptr)
      cluster = std::make_unique<core::Cluster>(exp.cluster);
    else
      cluster->reset(exp.cluster);
  });
  std::vector<mpi::Program> programs;
  s.build_s = timed([&] {
    SpanScope span(&spans, exp.grid ? "workload.build_grid2d"
                                    : "workload.build_ring");
    programs = exp.grid ? workload::build_grid2d(*exp.grid, exp.delays)
                        : workload::build_ring(exp.ring, exp.delays);
  });
  std::optional<mpi::Trace> trace;
  s.run_s = timed([&] {
    SpanScope span(&spans, "core.Cluster::run");
    trace.emplace(cluster->run(programs, exp.injected_noise));
    programs.clear();  // WaveRunner frees its programs inside the run, too
  });
  s.analyze_s = timed([&] {
    SpanScope span(&spans, "core.analyze_wave");
    if (exp.grid)
      analyze_grid(*trace, exp, s);
    else
      analyze_ring(*trace, exp, s);
  });
  s.events = cluster->events_processed();
  s.calendar_peak = cluster->peak_events_pending();
  s.stats = cluster->transport_stats();
  s.bytes_per_rank = cluster->peak_bytes_per_rank();
  return s;
}

bool same_wave(const core::WaveAnalysis& a, const core::WaveAnalysis& b) {
  return a.speed_ranks_per_sec == b.speed_ranks_per_sec &&
         a.decay_us_per_rank == b.decay_us_per_rank &&
         a.survival_hops == b.survival_hops;
}

/// The seeded sample of points the phase split replays.
std::vector<const sweep::SweepPoint*> sample_points(const ProfileInput& in) {
  std::size_t total = 0;
  for (const Campaign& c : in.campaigns) total += c.points.size();
  const std::size_t target = in.smoke ? 8 : 48;
  const std::uint64_t rate = std::max<std::size_t>(1, total / target);
  std::vector<const sweep::SweepPoint*> out;
  std::uint64_t g = 0;
  for (const Campaign& c : in.campaigns)
    for (const sweep::SweepPoint& p : c.points)
      if (Rng::for_stream(in.seed, g++, kProfileSampleStream)
              .uniform_below(rate) == 0)
        out.push_back(&p);
  if (out.empty() && total > 0) out.push_back(&in.campaigns.front().points[0]);
  return out;
}

void profile_points(const ProfileInput& in, Spans& spans, WorkloadResult& r) {
  const int reps = 3;
  std::unique_ptr<core::Cluster> cluster;
  core::WaveRunner runner;
  sweep::JsonlSink sink(in.scratch + "/profile.jsonl");
  std::vector<double> reset, build, run, analyze, point, reduce, format,
      write;
  double split_total = 0.0, ref_total = 0.0;
  double events = 0.0, run_seconds = 0.0, messages = 0.0, rdv = 0.0,
         unexpected = 0.0, bytes_per_rank = 0.0, calendar_peak = 0.0;
  std::size_t split_points = 0, line_bytes = 0;
  for (const sweep::SweepPoint* p : sample_points(in)) {
    // Phases and the WaveRunner reference alternate; the fastest of `reps`
    // rounds of each is kept, so a descheduled round does not skew either.
    double ref_s = 1e300;
    std::optional<Split> best;
    std::optional<core::WaveResult> ref;
    for (int k = 0; k < reps; ++k) {
      ref.reset();  // freeing the previous round's trace is not the run's cost
      ref_s = std::min(ref_s, timed([&] {
                         SpanScope span(&spans, "core.WaveRunner::run");
                         ref.emplace(runner.run(p->exp));
                       }));
      if (ref->ffwd_skips > 0) continue;  // the fast-forward path
      Split s = split_point(cluster, p->exp, spans);
      if (!best || s.total_s() < best->total_s()) best = std::move(s);
    }
    point.push_back(ref_s * 1e3);

    sweep::SweepRecord rec;
    std::string line;
    double reduce_s = 1e300, format_s = 1e300, write_s = 1e300;
    for (int k = 0; k < reps; ++k) {
      reduce_s = std::min(reduce_s, timed([&] {
                            SpanScope span(&spans, "sweep.reduce");
                            rec = sweep::reduce(*p, *ref);
                          }));
      format_s = std::min(format_s, timed([&] {
                            SpanScope span(&spans, "sweep.record_json_line");
                            line = sweep::record_json_line(rec);
                          }));
      write_s = std::min(write_s, timed([&] {
                           SpanScope span(&spans, "sweep.JsonlSink::write");
                           sink.write(rec);
                         }));
    }
    line_bytes += line.size();
    reduce.push_back(us(reduce_s));
    format.push_back(us(format_s));
    write.push_back(us(write_s));
    if (!best) continue;  // a fast-forward point: no phase split

    if (!same_wave(best->up, ref->up) || !same_wave(best->down, ref->down) ||
        best->cycle != ref->measured_cycle)
      r.fail("phase split of point " + std::to_string(p->index) +
             " differs from WaveRunner");
    split_points += 1;
    split_total += best->total_s();
    ref_total += ref_s;
    reset.push_back(us(best->reset_s));
    build.push_back(us(best->build_s));
    run.push_back(best->run_s * 1e3);
    analyze.push_back(us(best->analyze_s));
    events += static_cast<double>(best->events);
    run_seconds += best->run_s;
    const double msgs = static_cast<double>(best->stats.eager_sends +
                                            best->stats.rendezvous_sends);
    messages += msgs;
    rdv += static_cast<double>(best->stats.rendezvous_sends);
    unexpected += static_cast<double>(best->stats.unexpected_eager +
                                      best->stats.unexpected_rts);
    bytes_per_rank = std::max(bytes_per_rank, best->bytes_per_rank);
    calendar_peak =
        std::max(calendar_peak, static_cast<double>(best->calendar_peak));
  }
  if (split_points == 0)
    throw std::runtime_error("phase split sampled no point");

  const double coverage = split_total / ref_total * 100.0;
  std::cout << "  phase split: " << split_points
            << " points equal to WaveRunner, phases sum to " << coverage
            << "% of its time; " << line_bytes / reduce.size()
            << " bytes per record line\n";
  if (coverage < 90.0 || coverage > 110.0)
    r.fail("phase split sums to " + std::to_string(coverage) +
           "% of the WaveRunner time (outside 90..110%)");
  const double n = static_cast<double>(split_points);
  double run_total = 0.0;
  for (const double v : run) run_total += v / 1e3;
  auto& L = r.layers;
  L.push_back(
      per_point_row("sweep", "sweep.reduce_us_per_point", "us", reduce));
  L.push_back(
      per_point_row("sweep", "sweep.format_us_per_record", "us", format));
  L.push_back(per_point_row("sweep", "sweep.sink_us_per_record", "us", write));
  L.push_back(
      per_point_row("workload", "workload.build_us_per_point", "us", build));
  L.push_back(per_point_row("core", "core.reset_us_per_point", "us", reset));
  L.push_back(
      per_point_row("core", "core.simulate_ms_per_point", "ms", run));
  L.push_back(scalar_row("core", "core.simulate_share_pct", "%",
                         run_total / split_total * 100.0));
  L.push_back(
      per_point_row("core", "core.analyze_us_per_point", "us", analyze));
  L.push_back(per_point_row("core", "core.point_ms", "ms", point));
  L.push_back(scalar_row("core", "core.bytes_per_rank", "B", bytes_per_rank));
  L.push_back(scalar_row("sim", "sim.events_per_point", "count", events / n));
  L.push_back(
      scalar_row("sim", "sim.events_per_s", "1/s", events / run_seconds));
  L.push_back(scalar_row("sim", "sim.calendar_peak", "count", calendar_peak));
  L.push_back(
      scalar_row("mpi", "mpi.messages_per_point", "count", messages / n));
  L.push_back(scalar_row("mpi", "mpi.rendezvous_share", "ratio",
                         messages > 0 ? rdv / messages : 0.0));
  L.push_back(scalar_row("mpi", "mpi.unexpected_per_message", "ratio",
                         messages > 0 ? unexpected / messages : 0.0));
}

// ---- sweep pool, verify ---------------------------------------------------

/// Runs the campaigns through the worker pool as the workload does, then
/// every point again on one thread; returns the pool's wall time.
double profile_pool(const ProfileInput& in, Spans& spans, WorkloadResult& r) {
  std::vector<std::vector<sweep::SweepPoint>> runs;
  for (const Campaign& c : in.campaigns) {
    if (runs.empty() || !in.one_pool_run) runs.emplace_back();
    runs.back().insert(runs.back().end(), c.points.begin(), c.points.end());
  }
  double pool_s = 0.0, single_s = 0.0;
  std::vector<sweep::SweepRecord> pooled, single;
  for (const auto& run : runs) {
    sweep::RunnerOptions options;
    options.threads = in.threads;
    sweep::CampaignResult res;
    pool_s += timed([&] {
      SpanScope span(&spans, "sweep.run_campaign");
      res = sweep::run_campaign(run, options);
    });
    pooled.insert(pooled.end(), res.records.begin(), res.records.end());
    core::WaveRunner lab;
    for (const sweep::SweepPoint& p : run)
      single_s += timed(
          [&] { single.push_back(sweep::reduce(p, lab.run(p.exp))); });
  }
  r.layers.push_back(scalar_row(
      "sweep", "sweep.pool_efficiency", "ratio",
      single_s / (static_cast<double>(in.threads) * pool_s)));

  // Per campaign: the differ and the oracles on the pooled records; the
  // pooled and single-thread lines must be byte-identical.
  double diff_s = 0.0, oracle_s = 0.0;
  std::size_t at = 0;
  for (const Campaign& c : in.campaigns) {
    const auto first = static_cast<std::ptrdiff_t>(at);
    const auto last = static_cast<std::ptrdiff_t>(at + c.points.size());
    at += c.points.size();
    const std::vector<sweep::SweepRecord> a(pooled.begin() + first,
                                            pooled.begin() + last);
    const std::vector<sweep::SweepRecord> b(single.begin() + first,
                                            single.begin() + last);
    verify::DiffReport diff;
    diff_s += timed([&] {
      SpanScope span(&spans, "verify.diff_records");
      diff = verify::diff_records(a, b, verify::TolerancePolicy{}, true);
    });
    oracle_s += timed([&] {
      SpanScope span(&spans, "verify.check_oracles");
      (void)verify::check_oracles(c.scenario, a);
    });
    bool identical = diff.clean();
    for (std::size_t i = 0; identical && i < a.size(); ++i)
      identical =
          sweep::record_json_line(a[i]) == sweep::record_json_line(b[i]);
    if (!identical)
      r.fail(c.scenario.name + ": " + std::to_string(in.threads) +
             "-thread records differ from the single-thread run");
  }
  const auto records = static_cast<double>(pooled.size());
  r.layers.push_back(scalar_row("verify", "verify.diff_us_per_record", "us",
                                us(diff_s) / records));
  r.layers.push_back(scalar_row("verify", "verify.oracle_us_per_record", "us",
                                us(oracle_s) / records));
  return pool_s;
}

// ---- service --------------------------------------------------------------

/// Blocking line reader over a client socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool next(std::string& line) {
    while (!buf_.next_line(line)) {
      char chunk[16384];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buf_.feed(chunk, static_cast<std::size_t>(n));
    }
    return true;
  }

 private:
  int fd_;
  LineBuffer buf_;
};

/// The `type` of a control line.
std::string control_type(const std::string& line) {
  const json::Value msg = json::parse(line, "service response");
  const json::Value* type = msg.find("type");
  return type != nullptr ? type->text : std::string{};
}

/// Sends one submit and reads through its terminal line; returns the number
/// of record lines, or -1 when the job did not end in `done`.
long socket_job(int fd, LineReader& reader, const sweep::SweepSpec& spec) {
  if (!send_line(fd, service::submit_line("profile", 0, spec))) return -1;
  long records = 0;
  std::string line;
  while (reader.next(line)) {
    if (service::is_record_line(line)) {
      records += 1;
      continue;
    }
    const std::string type = control_type(line);
    if (type != "accepted") return type == "done" ? records : -1;
  }
  return -1;
}

/// Splits a drained job stream into its record lines; false unless the
/// stream ends in `done`.
bool record_lines(std::vector<std::string> lines,
                  std::vector<std::string>& out) {
  if (lines.empty() || control_type(lines.back()) != "done") return false;
  lines.pop_back();
  out = std::move(lines);
  return true;
}

void profile_service(const ProfileInput& in, double raw_pool_s, Spans& spans,
                     WorkloadResult& r) {
  const int parse_reps = in.smoke ? 1 : 5;
  std::vector<double> parse_us;
  for (const Campaign& c : in.campaigns) {
    const std::string line =
        service::submit_line("profile", 0, c.scenario.spec);
    double best = 1e300;
    for (int k = 0; k < parse_reps; ++k)
      best = std::min(best, timed([&] {
                        SpanScope span(&spans, "service.parse_request");
                        (void)service::parse_request(line);
                      }));
    parse_us.push_back(us(best));
  }

  service::ServiceOptions options;
  options.threads = in.threads;
  service::CampaignService svc(options);
  std::vector<std::uint64_t> jobs;
  double submit_s = 0.0, pump_s = 0.0;
  std::size_t decisions = 0, points = 0;
  for (const Campaign& c : in.campaigns) {
    service::SubmitResult sr;
    submit_s += timed([&] {
      SpanScope span(&spans, "service.submit");
      sr = svc.submit("profile", 0, c.scenario.spec);
    });
    if (!sr.accepted) {
      r.fail("profile submit rejected: " + sr.message);
      return;
    }
    jobs.push_back(sr.job);
    points += sr.points;
  }
  for (;;) {
    bool ran = false;
    pump_s += timed([&] {
      SpanScope span(&spans, "service.pump");
      ran = svc.pump();
    });
    if (!ran) break;
    decisions += 1;
  }
  std::vector<std::vector<std::string>> computed(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::vector<std::string> lines;
    svc.drain(jobs[j], lines);
    if (!record_lines(std::move(lines), computed[j]))
      r.fail(in.campaigns[j].scenario.name + ": computed job did not finish");
  }

  double replay_s = 0.0;
  std::size_t cached = 0, replayed = 0;
  for (std::size_t j = 0; j < in.campaigns.size(); ++j) {
    std::vector<std::string> lines;
    service::SubmitResult sr;
    replay_s += timed([&] {
      SpanScope span(&spans, "service.replay");
      sr = svc.submit("profile", 0, in.campaigns[j].scenario.spec);
      svc.drain(sr.job, lines);
    });
    cached += sr.cached;
    std::vector<std::string> records;
    if (!record_lines(std::move(lines), records) || records != computed[j])
      r.fail(in.campaigns[j].scenario.name +
             ": cached replay differs from the computed stream");
    replayed += records.size();
  }
  const double replay_us = us(replay_s) / static_cast<double>(replayed);

  // The same replays through the daemon's socket front-end.
  double socket_s = 0.0;
  std::size_t socket_lines = 0;
  {
    service::ServerOptions so;
    so.socket_path = in.scratch + "/profile.sock";
    so.service = options;
    service::Server server(so);
    server.start();
    ScopedFd fd = unix_connect(so.socket_path);
    LineReader reader(fd.get());
    for (const Campaign& c : in.campaigns)
      if (socket_job(fd.get(), reader, c.scenario.spec) < 0)
        r.fail(c.scenario.name + ": socket job failed");
    for (const Campaign& c : in.campaigns) {
      long lines = 0;
      socket_s += timed([&] {
        SpanScope span(&spans, "service.socket_replay");
        lines = socket_job(fd.get(), reader, c.scenario.spec);
      });
      if (lines < 0) r.fail(c.scenario.name + ": socket replay failed");
      else socket_lines += static_cast<std::size_t>(lines);
    }
  }

  const auto n_points = static_cast<double>(points);
  auto& L = r.layers;
  L.push_back(scalar_row("service", "service.submit_us", "us",
                         us(submit_s) / static_cast<double>(jobs.size())));
  L.push_back(scalar_row("service", "service.compute_points_per_s", "1/s",
                         n_points / pump_s));
  L.push_back(scalar_row("service", "service.compute_overhead_ratio", "ratio",
                         pump_s / raw_pool_s));
  L.push_back(
      scalar_row("service", "service.replay_us_per_record", "us", replay_us));
  L.push_back(scalar_row("service", "service.cache_hit_ratio", "ratio",
                         static_cast<double>(cached) / n_points));
  if (cached != points)
    r.fail("re-submitted campaigns hit the cache for " +
           std::to_string(cached) + " of " + std::to_string(points) +
           " points");
  L.push_back(scalar_row(
      "service", "service.batches_per_job", "count",
      static_cast<double>(decisions) / static_cast<double>(jobs.size())));
  L.push_back(scalar_row(
      "service", "service.socket_us_per_line", "us",
      us(socket_s) / static_cast<double>(socket_lines) - replay_us));
  L.push_back(per_point_row("support", "support.parse_request_us", "us",
                            parse_us));
}

}  // namespace

void profile_layers(const ProfileInput& in, Spans& spans,
                    WorkloadResult& result) {
  const int reps = in.smoke ? 1 : 5;
  double best = 1e300;
  std::size_t expanded = 0;
  for (int k = 0; k < reps; ++k) {
    double total = 0.0;
    expanded = 0;
    for (const Campaign& c : in.campaigns)
      total += timed([&] {
        SpanScope span(&spans, "sweep.expand");
        expanded += sweep::expand(c.scenario.spec).size();
      });
    best = std::min(best, total);
  }
  result.layers.push_back(scalar_row("sweep", "sweep.expand_us_per_point",
                                     "us",
                                     us(best) / static_cast<double>(expanded)));
  profile_points(in, spans, result);
  const double pool_s = profile_pool(in, spans, result);
  profile_service(in, pool_s, spans, result);
}

}  // namespace iw::bench
