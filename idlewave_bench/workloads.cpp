#include "workloads.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/experiment.hpp"
#include "phase_split.hpp"
#include "process.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/framing.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"
#include "verify/verify.hpp"

namespace iw::bench {
namespace {

// Rng stream purposes: every generated input is a pure function of the seed.
constexpr std::uint64_t kPassSeedStream = 1ull << 32;
constexpr std::uint64_t kSampleStream = 2ull << 32;
constexpr std::uint64_t kOrderStream = 3ull << 32;
constexpr std::uint64_t kJobStream = 4ull << 32;
constexpr std::uint64_t kSetupStream = 5ull << 32;
/// Pass numbers of the warm-up passes (one per timed set-up, then the run's
/// own); far above any timed pass, so no timed pass repeats their seeds.
constexpr std::uint64_t kWarmupPass = 1ull << 40;

/// Timed set-ups per run.
int setup_reps(const RunConfig& cfg) { return cfg.smoke ? 2 : 15; }

/// The percentile of the run's set-up and pass times that the end-to-end
/// metrics report. On a shared host, other tenants slow every core by
/// 20-75% for seconds to minutes at a time; the simulation's own cost is
/// what the fastest passes show. Over ten seeded runs in such a period the
/// 5th percentile spread by 0.12-0.18 of its median, the median by 0.2-0.4;
/// the minimum, which rests on a single pass, was about as steady.
constexpr double kReportedPct = 5.0;

/// Peak RSS is read once this many passes have completed. Bookkeeping (the
/// sampled recompute points, the service cache) grows with every pass, so
/// reading it after a fixed amount of work keeps a faster run from reading
/// as a bigger one.
constexpr std::size_t kRssMarkPasses = 50;

/// How long the untraced operations run: all of --seconds, half of it in a
/// traced run (the traced repeat and the profile follow), and one operation
/// per connection or pass (zero seconds) in a smoke run.
double measured_seconds(const RunConfig& cfg) {
  return cfg.smoke ? 0.0 : (cfg.trace ? cfg.seconds / 2 : cfg.seconds);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a,
                     std::uint64_t purpose) {
  return Rng::for_stream(seed, a, purpose).next_u64();
}

double ms(double seconds) { return seconds * 1e3; }

/// What a timed loop of passes measured.
struct OpLog {
  std::vector<double> op_ms;  ///< wall time per pass
  std::vector<double> rate;   ///< points (or records) per second, per pass
  double busy_s = 0.0;        ///< time the passes were running
  std::size_t ops = 0;
  double rss_mb = 0.0;  ///< peak RSS after kRssMarkPasses passes

  void add(double seconds, std::size_t items) {
    op_ms.push_back(ms(seconds));
    rate.push_back(static_cast<double>(items) / seconds);
    busy_s += seconds;
    if (++ops == kRssMarkPasses) rss_mb = peak_rss_mb();
  }
  /// Peak RSS of a loop that ended before kRssMarkPasses passes.
  void finish() {
    if (rss_mb == 0.0) rss_mb = peak_rss_mb();
  }
};

std::vector<Row> e2e_rows(const std::vector<double>& setup_s,
                          const OpLog& log) {
  std::vector<Row> rows;
  rows.push_back(sample_row("e2e", "setup_s", "s", setup_s, kReportedPct));
  rows.push_back(sample_row("e2e", "points_per_s", "1/s", log.rate,
                            100.0 - kReportedPct));
  rows.push_back(
      sample_row("e2e", "campaign_ms_p05", "ms", log.op_ms, kReportedPct));
  rows.push_back(scalar_row("e2e", "peak_rss_mb", "MiB", log.rss_mb));
  return rows;
}

/// The timed set-ups of a run. Each is a fresh process of this program
/// (--setup-probe), so that everything a user's run does before its first
/// campaign is timed, lazily initialised state included; it is timed from
/// the fork to its "ready" line. They run between passes, spread evenly
/// over the timed window, so that a few seconds of interference cannot
/// slow all of them.
class SetupProbes {
 public:
  SetupProbes(const RunConfig& cfg, double window_s)
      : cfg_(cfg), window_s_(window_s) {}

  /// Runs the set-ups that are due `start` + i * window / reps, or (finish)
  /// every one left.
  void run_due(Clock::time_point start, WorkloadResult& r,
               bool finish = false) {
    const int reps = setup_reps(cfg_);
    while (static_cast<int>(seconds_.size()) < reps &&
           (finish || seconds_between(start, Clock::now()) >=
                          window_s_ * static_cast<double>(seconds_.size()) /
                              reps))
      seconds_.push_back(one(static_cast<int>(seconds_.size()), r));
  }

  [[nodiscard]] const std::vector<double>& seconds() const { return seconds_; }

 private:
  double one(int rep, WorkloadResult& r) {
    std::vector<std::string> args = {
        "idlewave_bench",
        "--workload=" + cfg_.workload,
        "--seed=" + std::to_string(cfg_.seed),
        "--threads=" + std::to_string(cfg_.threads),
        // Its own directory: a service set-up binds its own socket.
        "--scratch=" + cfg_.scratch + "/setup",
        "--setup-probe=" + std::to_string(rep)};
    if (cfg_.smoke) args.push_back("--smoke-size");
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const auto t0 = Clock::now();
    const pid_t pid = spawn_self(std::move(args), fds[1]);
    ::close(fds[1]);
    std::string line;
    char c = 0;
    while (::read(fds[0], &c, 1) == 1 && c != '\n') line += c;
    const double seconds = seconds_between(t0, Clock::now());
    ::close(fds[0]);
    const int code = wait_child(pid);
    if (code != 0 || line != "ready")
      r.fail("set-up " + std::to_string(rep) + " exited with " +
             std::to_string(code));
    r.attempted += 1;
    return seconds;
  }

  const RunConfig& cfg_;
  double window_s_;
  std::vector<double> seconds_;
};

/// JSONL sink whose writes are spans of the traced run. They happen on the
/// runner's worker threads, so the campaign's span is named as the parent.
class SpannedJsonlSink final : public sweep::RecordSink {
 public:
  SpannedJsonlSink(const std::string& path, Spans* spans, std::int32_t parent)
      : sink_(path), spans_(spans), parent_(parent) {}

  void write(const sweep::SweepRecord& rec) override {
    SpanScope span(spans_, "sweep.JsonlSink::write", parent_);
    sink_.write(rec);
  }

 private:
  sweep::JsonlSink sink_;
  Spans* spans_;
  std::int32_t parent_;
};

/// The end of a traced run: the layer profile, the tracing overhead (the
/// traced repeat against the untraced operations) and the span output.
void finish_traced(const RunConfig& cfg, const ProfileInput& in, Spans& spans,
                   double untraced_s, double traced_s, WorkloadResult& r) {
  profile_layers(in, spans, r);
  r.layers.push_back(scalar_row("bench", "bench.trace_overhead_pct", "%",
                                (traced_s / untraced_s - 1.0) * 100.0));
  r.self_times = spans.self_times();
  spans.write_chrome_trace(cfg.scratch + "/" + cfg.workload + ".trace.json");
}

ProfileInput profile_base(const RunConfig& cfg) {
  ProfileInput in;
  in.threads = cfg.threads;
  in.seed = cfg.seed;
  in.smoke = cfg.smoke;
  in.scratch = cfg.scratch;
  return in;
}

/// Result of one campaign pass.
struct PassStats {
  double seconds = 0.0;  ///< timed wall of the pass
  std::size_t points = 0;
};

/// Runs passes 0, 1, ... until `seconds` have passed (at least one pass),
/// or exactly `passes` passes when that is non-zero, with the due set-ups
/// (if any) between them.
template <typename W>
OpLog pass_loop(W& w, double seconds, std::size_t passes, Spans* spans,
                bool bookkeep, SetupProbes* probes, WorkloadResult& r) {
  OpLog log;
  const auto start = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    if (probes != nullptr) probes->run_due(start, r);
    if (passes != 0 ? k >= passes
                    : k > 0 && seconds_between(start, Clock::now()) >= seconds)
      break;
    const PassStats s = w.pass(k, bookkeep, spans, r);
    log.add(s.seconds, s.points);
  }
  if (probes != nullptr) probes->run_due(start, r, /*finish=*/true);
  log.finish();
  return log;
}

/// The shared loop of the pass workloads: an untimed warm-up pass, the
/// timed passes with the timed set-ups between them, and in the traced run
/// the same passes again with spans plus the layer profile.
template <typename W>
WorkloadResult run_passes(W& w, const RunConfig& cfg) {
  WorkloadResult r;
  r.workload = cfg.workload;
  w.pass(kWarmupPass + static_cast<std::uint64_t>(setup_reps(cfg)), false,
         nullptr, r);
  SetupProbes probes(cfg, measured_seconds(cfg));
  const OpLog log =
      pass_loop(w, measured_seconds(cfg), 0, nullptr, true, &probes, r);
  r.e2e = e2e_rows(probes.seconds(), log);
  if (cfg.trace) {
    Spans spans;
    const OpLog traced = pass_loop(w, 0.0, log.ops, &spans, false, nullptr, r);
    finish_traced(cfg, w.profile_input(), spans, log.busy_s, traced.busy_s, r);
  }
  w.check(r);
  return r;
}

// ---- catalog_campaign and decay_long --------------------------------------

/// Passes of one run_campaign each over the points of several scenarios,
/// every scenario re-seeded per pass from the run seed. A seeded 1-in-N
/// sample of points is recomputed from scratch after the run and must
/// reproduce the campaign's record line byte for byte.
class SweepPasses {
 public:
  SweepPasses(const RunConfig& cfg, std::vector<sweep::Scenario> scenarios,
              bool jsonl, std::uint64_t sample_rate)
      : cfg_(cfg),
        scenarios_(std::move(scenarios)),
        jsonl_(jsonl),
        sample_rate_(sample_rate) {}

  PassStats pass(std::uint64_t k, bool bookkeep, Spans* spans,
                 WorkloadResult& r) {
    SpanScope span(spans, "bench.pass");
    const auto t0 = Clock::now();
    std::vector<sweep::SweepPoint> points;
    for (std::size_t j = 0; j < scenarios_.size(); ++j) {
      SpanScope expand_span(spans, "sweep.expand");
      std::vector<sweep::SweepPoint> part =
          sweep::expand(spec_for(j, k));
      std::move(part.begin(), part.end(), std::back_inserter(points));
    }
    sweep::CampaignResult result;
    try {
      SpanScope run_span(spans, "sweep.run_campaign");
      std::optional<SpannedJsonlSink> sink;
      sweep::RunnerOptions options;
      options.threads = cfg_.threads;
      if (jsonl_) {
        sink.emplace(cfg_.scratch + "/" + cfg_.workload + ".jsonl", spans,
                     run_span.id());
        options.sinks = {&*sink};
      }
      result = sweep::run_campaign(points, options);
    } catch (const std::exception& e) {
      r.fail("pass " + std::to_string(k) + ": " + e.what(), points.size());
    }
    const auto t1 = Clock::now();
    r.attempted += points.size();
    if (result.records.size() != points.size()) {
      if (!result.records.empty())
        r.fail("pass " + std::to_string(k) + " lost records",
               points.size() - result.records.size());
      return {seconds_between(t0, t1), points.size()};
    }
    if (bookkeep) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        const bool fingerprinted = k == 0;
        const bool sample =
            Rng::for_stream(cfg_.seed, k, kSampleStream + i)
                .uniform_below(sample_rate_) == 0;
        if (!fingerprinted && !sample) continue;
        std::string line = sweep::record_json_line(result.records[i]);
        if (fingerprinted) r.fingerprint.add(line);
        if (sample) sampled_.push_back({points[i], std::move(line)});
      }
    }
    return {seconds_between(t0, t1), points.size()};
  }

  /// The sampled recompute: fresh run_wave_experiment -> reduce ->
  /// record_json_line per sampled point, on the worker threads.
  void check(WorkloadResult& r) {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    const auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= sampled_.size()) return;
        const Sampled& s = sampled_[i];
        std::string why;
        try {
          const std::string line = sweep::record_json_line(
              sweep::reduce(s.point, core::run_wave_experiment(s.point.exp)));
          if (line != s.line) why = "differs from the campaign's line";
        } catch (const std::exception& e) {
          why = e.what();
        }
        if (!why.empty()) {
          std::lock_guard<std::mutex> lock(mutex);
          r.fail("recompute of point " + std::to_string(s.point.index) +
                 ": " + why);
        }
      }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < cfg_.threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    std::cout << "  sampled recompute: " << sampled_.size()
              << " points, 1 in " << sample_rate_ << "\n";
  }

  /// Pass 0's campaigns, run as one pool call like the pass itself.
  [[nodiscard]] ProfileInput profile_input() const {
    ProfileInput in = profile_base(cfg_);
    in.one_pool_run = true;
    for (std::size_t j = 0; j < scenarios_.size(); ++j) {
      Campaign c{scenarios_[j], {}};
      c.scenario.spec = spec_for(j, 0);
      c.points = sweep::expand(c.scenario.spec);
      in.campaigns.push_back(std::move(c));
    }
    return in;
  }

 private:
  struct Sampled {
    sweep::SweepPoint point;
    std::string line;
  };

  [[nodiscard]] sweep::SweepSpec spec_for(std::size_t scenario,
                                          std::uint64_t pass) const {
    sweep::SweepSpec spec = scenarios_[scenario].spec;
    spec.campaign_seed = derive(cfg_.seed, pass, kPassSeedStream + scenario);
    return spec;
  }

  const RunConfig& cfg_;
  std::vector<sweep::Scenario> scenarios_;
  bool jsonl_;
  std::uint64_t sample_rate_;
  std::vector<Sampled> sampled_;
};

/// The full catalog, with scale_wave capped at np <= 2048: the 102400-rank
/// point belongs to verify_corpus, where its fast-forward tail is measured.
std::vector<sweep::Scenario> capped_catalog() {
  std::vector<sweep::Scenario> out = sweep::scenario_catalog();
  for (sweep::Scenario& s : out)
    std::erase_if(s.spec.np, [](int np) { return np > 2048; });
  return out;
}

/// A Fig. 8/9-style noise scan: few heavy noisy points (fast-forward is
/// ineligible under noise), so steady-state engine, transport and noise
/// cost dominates.
sweep::Scenario decay_scenario(bool smoke) {
  sweep::Scenario s;
  s.name = "decay_long";
  s.summary = "noisy bidirectional periodic rings: decay under noise E";
  s.paper_ref = "Fig. 8 / Fig. 9";
  s.spec.delay_ms = {12};
  s.spec.msg_bytes = {16384, 262144};
  s.spec.noise_E_percent = {0, 5, 10, 20};
  s.spec.np = smoke ? std::vector<int>{32, 64} : std::vector<int>{64, 128};
  s.spec.steps = smoke ? 30 : 60;
  s.spec.direction = {workload::Direction::bidirectional};
  s.spec.boundary = {workload::Boundary::periodic};
  s.spec.min_idle = milliseconds(3.0);
  s.oracle.damping_trend_in_noise = true;
  s.oracle.min_front_r2 = 0.97;
  s.oracle.max_speed_rel_err = 0.6;
  return s;
}

// ---- verify_corpus --------------------------------------------------------

/// Passes of verify_scenario over all nine scenarios against the golden
/// corpus. The goldens pin the campaign seeds, so the run seed only
/// permutes the scenario order.
class VerifyCorpus {
 public:
  explicit VerifyCorpus(const RunConfig& cfg)
      : cfg_(cfg), order_(sweep::scenario_catalog().size()) {
    options_.golden_dir = cfg.golden_dir;
    options_.quick = cfg.smoke;
    options_.threads = cfg.threads;
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    Rng rng = Rng::for_stream(cfg.seed, 0, kOrderStream);
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1], order_[rng.uniform_below(i)]);
  }

  PassStats pass(std::uint64_t k, bool bookkeep, Spans* spans,
                 WorkloadResult& r) {
    const auto& catalog = sweep::scenario_catalog();
    SpanScope span(spans, "bench.pass");
    const auto t0 = Clock::now();
    std::size_t points = 0;
    for (const std::size_t idx : order_) {
      verify::ScenarioVerdict v;
      {
        SpanScope vspan(spans, "verify.verify_scenario");
        const std::int64_t b = spans ? spans->now_ns() : 0;
        v = verify::verify_scenario(catalog[idx], options_);
        if (spans != nullptr) record_phases(*spans, vspan.id(), b, v.timing);
      }
      r.attempted += 1;
      points += v.records_run;
      if (!v.pass())
        r.fail("verify " + v.scenario + ": " +
               (v.error.empty()
                    ? std::to_string(v.diff.field_diffs.size()) +
                          " field diffs, " +
                          std::to_string(v.diff.structural.size()) +
                          " structural, " +
                          std::to_string(v.oracle.violations.size()) +
                          " oracle violations"
                    : v.error));
      if (bookkeep && k == 0)
        r.fingerprint.add(v.scenario + " records=" +
                          std::to_string(v.records_run) + " compared=" +
                          std::to_string(v.diff.records_compared) +
                          " speed_checks=" +
                          std::to_string(v.oracle.speed_checks) +
                          (v.pass() ? " pass" : " FAIL"));
    }
    return {seconds_between(t0, Clock::now()), points};
  }

  void check(WorkloadResult&) {}

  /// Every scenario at its golden seed, one pool call per scenario.
  [[nodiscard]] ProfileInput profile_input() const {
    ProfileInput in = profile_base(cfg_);
    for (const sweep::Scenario& s : sweep::scenario_catalog()) {
      Campaign c{s, sweep::expand(s.spec)};
      if (cfg_.smoke && !s.quick_subset.empty()) {
        std::vector<sweep::SweepPoint> subset;
        for (const std::size_t i : s.quick_subset)
          subset.push_back(c.points.at(i));
        c.points = std::move(subset);
      }
      in.campaigns.push_back(std::move(c));
    }
    return in;
  }

 private:
  /// verify_scenario times its own phases; they become child spans laid
  /// end to end from the call's start.
  static void record_phases(Spans& spans, std::int32_t parent,
                            std::int64_t begin,
                            const verify::VerifyTiming& t) {
    const std::pair<const char*, double> phases[] = {
        {"verify.load_golden", t.load},
        {"sweep.run_campaign", t.campaign},
        {"verify.diff_records", t.diff},
        {"verify.check_oracles", t.oracle}};
    for (const auto& [name, seconds] : phases) {
      const auto end = begin + static_cast<std::int64_t>(seconds * 1e9);
      spans.record(name, begin, end, parent);
      begin = end;
    }
  }

  const RunConfig& cfg_;
  verify::VerifyOptions options_;
  std::vector<std::size_t> order_;  ///< seeded scenario order
};

// ---- service_mix ----------------------------------------------------------

/// Closed loop against an in-process idlewaved Server: one client thread
/// drives one connection per worker thread through poll(), each with its
/// own fair-share client name, sending its next submit only after the
/// previous job's `done` line. A connection works in passes of 16 jobs in a
/// seeded order: each of the 8 non-scale scenarios once at a new seed
/// (computed) and once as a re-submit of a campaign of that scenario the
/// connection already completed (served from the cache). The pass is the
/// timed operation: every pass holds the same mix, whereas single jobs fall
/// into a fast cached and a slow computed half, and a median job time would
/// sit on the edge between them.
class ServiceMix {
 public:
  explicit ServiceMix(const RunConfig& cfg) : cfg_(cfg) {
    for (const sweep::Scenario& s : sweep::scenario_catalog())
      if (s.name != "scale_wave") scenarios_.push_back(&s);
  }

  /// A fresh server and connections, then one warm-up pass per connection
  /// that computes every scenario once. The warm-up campaigns are the same
  /// at every set-up (each on a fresh, empty cache), so the repetitions do
  /// equal work whatever the seed, and they are what the first re-submits
  /// of the timed passes draw from.
  void setup(WorkloadResult& r) {
    conns_.clear();
    server_.reset();
    service::ServerOptions options;
    options.socket_path = cfg_.scratch + "/service.sock";
    options.service.threads = cfg_.threads;  // batches: idlewaved's default
    server_ = std::make_unique<service::Server>(options);
    server_->start();
    for (int c = 0; c < cfg_.threads; ++c) {
      Conn conn;
      conn.fd = unix_connect(options.socket_path);
      conn.client = "client-" + std::to_string(c);
      conns_.push_back(std::move(conn));
    }
    Loop warmup;
    warmup.warmup = true;
    run_loop(warmup, r);
  }

  struct Loop {
    double seconds = 0.0;
    /// Passes per connection; empty = until `seconds` have passed.
    std::vector<std::size_t> passes;
    bool warmup = false;  ///< the set-up pass of each connection
    Spans* spans = nullptr;
    bool bookkeep = false;
    SetupProbes* probes = nullptr;  ///< timed set-ups, run between passes
  };

  struct LoopResult {
    OpLog log;
    std::vector<std::size_t> passes;  ///< passes per connection
    std::size_t jobs = 0;
    std::size_t replays = 0;
  };

  LoopResult run_loop(const Loop& loop, WorkloadResult& r) {
    LoopResult out;
    const auto start = Clock::now();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      conn.rng = Rng::for_stream(cfg_.seed, c, kJobStream);
      conn.passes = 0;
      conn.jobs = 0;
      if (loop.warmup) conn.history.assign(scenarios_.size(), {});
    }
    if (loop.probes != nullptr) loop.probes->run_due(start, r);
    for (std::size_t c = 0; c < conns_.size(); ++c)
      start_pass(conns_[c], c, loop, start, r);
    int idle_polls = 0;
    std::vector<pollfd> fds;
    std::vector<char> buf(64 * 1024);
    for (;;) {
      fds.clear();
      for (const Conn& conn : conns_)
        if (conn.busy) fds.push_back(pollfd{conn.fd.get(), POLLIN, 0});
      if (fds.empty()) break;
      const int ready = ::poll(fds.data(), fds.size(), 1000);
      if (ready == 0 && ++idle_polls > 60) {
        r.fail("service stalled for 60 s");
        break;
      }
      if (ready <= 0) continue;
      idle_polls = 0;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        Conn& conn = conns_[c];
        if (!conn.busy) continue;
        const auto it =
            std::find_if(fds.begin(), fds.end(), [&](const pollfd& p) {
              return p.fd == conn.fd.get();
            });
        if (it == fds.end() || it->revents == 0) continue;
        const ssize_t n = ::read(conn.fd.get(), buf.data(), buf.size());
        if (n <= 0) {
          r.fail(conn.client + ": disconnected mid-job");
          conn.busy = false;
          continue;
        }
        conn.in.feed(buf.data(), static_cast<std::size_t>(n));
        std::string line;
        while (conn.busy && conn.in.next_line(line)) {
          if (!on_line(conn, line, loop, out, r)) continue;
          if (conn.next < conn.plan.size()) {
            submit_next(conn, c, loop, r);
            continue;
          }
          if (!loop.warmup) log_pass(conn, loop, out);
          conn.passes += 1;
          if (loop.probes != nullptr) loop.probes->run_due(start, r);
          start_pass(conn, c, loop, start, r);
        }
      }
    }
    if (loop.probes != nullptr) loop.probes->run_due(start, r, true);
    out.log.finish();
    for (const Conn& conn : conns_) {
      out.passes.push_back(conn.passes);
      out.jobs += conn.jobs;
    }
    return out;
  }

  /// The campaigns of each connection's first pass.
  [[nodiscard]] ProfileInput profile_input() const {
    ProfileInput in = profile_base(cfg_);
    for (const JobKey& key : profile_keys_) {
      Campaign c{*scenarios_[key.first], {}};
      c.scenario.spec.campaign_seed = key.second;
      c.points = sweep::expand(c.scenario.spec);
      in.campaigns.push_back(std::move(c));
    }
    return in;
  }

 private:
  using JobKey = std::pair<std::size_t, std::uint64_t>;  ///< scenario, seed

  struct Planned {
    std::size_t scenario = 0;
    bool resubmit = false;
  };

  struct Conn {
    ScopedFd fd;
    LineBuffer in;
    std::string client;
    Rng rng{0};
    /// Per scenario, the seeds of the campaigns this connection computed.
    std::vector<std::vector<std::uint64_t>> history;
    std::size_t passes = 0;  ///< passes completed in this loop
    std::size_t jobs = 0;    ///< jobs submitted in this loop
    // The pass in flight.
    std::vector<Planned> plan;
    std::size_t next = 0;  ///< next job of `plan` to submit
    Clock::time_point pass_start;
    std::size_t pass_records = 0;
    // The job in flight.
    bool busy = false;
    JobKey key;
    bool resubmit = false;
    std::size_t expected = 0;
    Clock::time_point sent;
    std::optional<Clock::time_point> first;
    Fnv1a64 digest;
    std::size_t records = 0;
  };

  /// Plans a connection's next pass and submits its first job, unless the
  /// loop is over for this connection.
  void start_pass(Conn& conn, std::size_t c, const Loop& loop,
                  Clock::time_point start, WorkloadResult& r) {
    conn.plan.clear();
    conn.next = 0;
    if (loop.warmup) {
      if (conn.passes > 0) return;
      for (std::size_t j = 0; j < scenarios_.size(); ++j)
        conn.plan.push_back({j, false});
    } else {
      const bool more =
          !loop.passes.empty()
              ? conn.passes < loop.passes[c]
              : conn.passes < 1 ||
                    seconds_between(start, Clock::now()) < loop.seconds;
      if (!more) return;
      for (std::size_t j = 0; j < scenarios_.size(); ++j) {
        conn.plan.push_back({j, false});
        conn.plan.push_back({j, true});
      }
      for (std::size_t i = conn.plan.size(); i > 1; --i)
        std::swap(conn.plan[i - 1], conn.plan[conn.rng.uniform_below(i)]);
    }
    conn.pass_start = Clock::now();
    conn.pass_records = 0;
    submit_next(conn, c, loop, r);
  }

  void submit_next(Conn& conn, std::size_t c, const Loop& loop,
                   WorkloadResult& r) {
    const Planned job = conn.plan[conn.next++];
    std::uint64_t seed = 0;
    if (loop.warmup) {
      seed = derive(cfg_.seed, c * scenarios_.size() + job.scenario,
                    kSetupStream);
    } else if (job.resubmit) {
      const std::vector<std::uint64_t>& done = conn.history[job.scenario];
      seed = done[conn.rng.uniform_below(done.size())];
    } else {
      seed = conn.rng.next_u64();
    }
    conn.key = {job.scenario, seed};
    conn.resubmit = job.resubmit;
    sweep::SweepSpec spec = scenarios_[job.scenario]->spec;
    spec.campaign_seed = seed;
    const std::string line = service::submit_line(conn.client, 0, spec);
    conn.expected = spec.points();
    conn.first.reset();
    conn.digest = Fnv1a64{};
    conn.records = 0;
    conn.busy = true;
    conn.jobs += 1;
    r.attempted += 1;
    conn.sent = Clock::now();
    if (!send_line(conn.fd.get(), line)) {
      r.fail(conn.client + ": submit failed (disconnected)");
      conn.busy = false;
    }
  }

  /// Logs a connection's completed pass as one timed operation.
  static void log_pass(const Conn& conn, const Loop& loop, LoopResult& out) {
    const auto end = Clock::now();
    out.log.add(seconds_between(conn.pass_start, end), conn.pass_records);
    if (loop.spans != nullptr)
      loop.spans->record("bench.pass", loop.spans->ns_at(conn.pass_start),
                         loop.spans->ns_at(end), Spans::kNoParent);
  }

  /// Handles one line of a connection's job; true when the job ended.
  bool on_line(Conn& conn, const std::string& line, const Loop& loop,
               LoopResult& out, WorkloadResult& r) {
    // The records of each connection's first pass make up the fingerprint.
    const bool fingerprinted = loop.bookkeep && conn.passes == 0;
    if (service::is_record_line(line)) {
      if (!conn.first) conn.first = Clock::now();
      conn.digest.update(line).update("\n", 1);
      conn.records += 1;
      if (fingerprinted) r.fingerprint.add(line);
      return false;
    }
    json::Value msg;
    try {
      msg = json::parse(line, "service response");
    } catch (const std::exception&) {
    }
    const json::Value* type = msg.find("type");
    const std::string kind = type != nullptr ? type->text : "";
    if (kind == "accepted") return false;
    conn.busy = false;
    const auto done = Clock::now();
    const std::string job = conn.client + " job " + std::to_string(conn.jobs) +
                            " (" + scenarios_[conn.key.first]->name + ")";
    if (kind != "done") {
      r.fail(job + ": " + line);
      return true;
    }
    if (conn.records != conn.expected) {
      r.fail(job + ": " + std::to_string(conn.records) + " of " +
             std::to_string(conn.expected) + " records");
      return true;
    }
    const json::Value* hits = msg.find("cache_hits");
    if (conn.resubmit &&
        (hits == nullptr || hits->number != static_cast<double>(conn.records)))
      r.fail(job + ": re-submitted campaign was not fully cached");
    // Replays must repeat the bytes first received for the campaign.
    const auto seen = first_seen_.emplace(
        conn.key, std::make_pair(conn.digest.digest(), conn.records));
    if (!seen.second &&
        seen.first->second != std::make_pair(conn.digest.digest(),
                                             conn.records))
      r.fail(job + ": replayed records differ from the first receipt");
    if (conn.resubmit) out.replays += 1;
    else conn.history[conn.key.first].push_back(conn.key.second);
    conn.pass_records += conn.records;
    if (loop.warmup) return true;
    if (fingerprinted &&
        std::find(profile_keys_.begin(), profile_keys_.end(), conn.key) ==
            profile_keys_.end())
      profile_keys_.push_back(conn.key);
    if (loop.spans != nullptr) {
      const std::int32_t id =
          loop.spans->record("service.job", loop.spans->ns_at(conn.sent),
                             loop.spans->ns_at(done), Spans::kNoParent);
      if (conn.first)
        loop.spans->record("service.first_record",
                           loop.spans->ns_at(conn.sent),
                           loop.spans->ns_at(*conn.first), id);
    }
    return true;
  }

  const RunConfig& cfg_;
  std::vector<const sweep::Scenario*> scenarios_;
  std::unique_ptr<service::Server> server_;
  std::vector<Conn> conns_;  ///< after server_: closed before it stops
  std::map<JobKey, std::pair<std::uint64_t, std::size_t>> first_seen_;
  std::vector<JobKey> profile_keys_;
};

WorkloadResult run_service(const RunConfig& cfg) {
  WorkloadResult r;
  r.workload = cfg.workload;
  ServiceMix mix(cfg);
  mix.setup(r);
  SetupProbes probes(cfg, measured_seconds(cfg));
  ServiceMix::Loop loop;
  loop.seconds = measured_seconds(cfg);
  loop.bookkeep = true;
  loop.probes = &probes;
  const ServiceMix::LoopResult measured = mix.run_loop(loop, r);
  r.e2e = e2e_rows(probes.seconds(), measured.log);
  std::cout << "  service: " << measured.log.ops << " passes, "
            << measured.jobs << " jobs, " << measured.replays
            << " cached replays\n";
  if (cfg.trace) {
    // The same job sequence on a fresh server, with spans.
    Spans spans;
    mix.setup(r);
    ServiceMix::Loop traced;
    traced.passes = measured.passes;
    traced.spans = &spans;
    const ServiceMix::LoopResult again = mix.run_loop(traced, r);
    finish_traced(cfg, mix.profile_input(), spans, measured.log.busy_s,
                  again.log.busy_s, r);
  }
  return r;
}

/// Calls `f` with the pass workload `cfg.workload` names.
template <typename F>
void with_pass_workload(const RunConfig& cfg, F&& f) {
  if (cfg.workload == "catalog_campaign") {
    SweepPasses w(cfg, capped_catalog(), /*jsonl=*/true, /*sample_rate=*/50);
    f(w);
  } else if (cfg.workload == "decay_long") {
    SweepPasses w(cfg, {decay_scenario(cfg.smoke)}, /*jsonl=*/false,
                  /*sample_rate=*/8);
    f(w);
  } else if (cfg.workload == "verify_corpus") {
    VerifyCorpus w(cfg);
    f(w);
  } else {
    throw std::invalid_argument("unknown workload: " + cfg.workload);
  }
}

}  // namespace

WorkloadResult run_workload(const RunConfig& cfg) {
  if (cfg.workload == "service_mix") return run_service(cfg);
  WorkloadResult r;
  with_pass_workload(cfg, [&](auto& w) { r = run_passes(w, cfg); });
  return r;
}

bool run_setup(const RunConfig& cfg, int rep) {
  WorkloadResult r;
  if (cfg.workload == "service_mix") {
    ServiceMix mix(cfg);
    mix.setup(r);
  } else {
    with_pass_workload(cfg, [&](auto& w) {
      w.pass(kWarmupPass + static_cast<std::uint64_t>(rep), false, nullptr, r);
    });
  }
  return r.failed == 0;
}

}  // namespace iw::bench
