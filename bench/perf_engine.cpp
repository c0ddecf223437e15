// Microbenchmarks of the simulator itself, with a machine-readable
// BENCH_engine.json artifact so the engine's perf trajectory is tracked
// from PR to PR. These guard the usability of the harness (a Fig. 8 sweep
// runs ~3000 simulations).
//
// Each micro workload is measured twice: once on the production engine
// (slab-backed radix-heap calendar + small-buffer EventFn) and once on an
// inline reference replica of the naive seed implementation
// (std::priority_queue of std::function events, pop-by-copy semantics via
// top()/pop()). The workloads schedule closures of the size the simulator
// actually uses (a context pointer plus ~3 words of captured state) — big
// enough that std::function heap-allocates, as it does for every
// compute-completion and protocol event in src/.
//
// Two full-stack rings run on the production engine alone: an eager one,
// and a noisy rendezvous one in the shape of idlewave_bench's decay_long,
// whose timestamps are nearly all distinct like the paper's runs. Their
// rows report wall time per run next to events/s, because a transport
// change that cuts events per message moves events/s either way.
//
// The exit code is a regression gate: 1 when the production engine runs
// any micro workload at less than kMinSpeedup times the naive replica
// (summary.min_speedup), so a calendar regression fails CI.
//
// Flags: --json=<path> (default BENCH_engine.json; --out is an accepted
//        alias), --smoke (CI-sized run),
//        --reps=N, --churn=N, --pending=N, --batches=N, --prefill=N.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "sim/engine.hpp"
#include "support/cli.hpp"
#include "sweep/spec.hpp"
#include "workload/delay.hpp"
#include "workload/ring.hpp"

namespace {

using namespace iw;

/// Lowest accepted production/naive events-per-second ratio on any micro
/// workload; the radix-heap calendar runs them at about 3-5x naive.
constexpr double kMinSpeedup = 1.5;

// ---------------------------------------------------------------------------
// Reference engine: the seed's calendar, verbatim semantics.

class NaiveEngine {
 public:
  using Fn = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  void at(SimTime when, Fn fn) {
    heap_.push(NEvent{when, next_seq_++, std::move(fn)});
    if (heap_.size() > peak_) peak_ = heap_.size();
  }
  void after(Duration delay, Fn fn) { at(now_ + delay, std::move(fn)); }

  void run() {
    while (!heap_.empty()) {
      // Matches the seed Calendar::pop(): move out of top(), then pop.
      NEvent ev = std::move(const_cast<NEvent&>(heap_.top()));
      heap_.pop();
      now_ = ev.when;
      ++processed_;
      ev.fn();
    }
  }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::size_t peak_events_pending() const { return peak_; }

 private:
  struct NEvent {
    SimTime when;
    std::uint64_t seq;
    Fn fn;
  };
  struct Later {
    bool operator()(const NEvent& a, const NEvent& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<NEvent, std::vector<NEvent>, Later> heap_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t peak_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads. Handlers are copyable PODs of the size the simulator's real
// closures have (context pointer + 3 captured words = 32 bytes), so both
// engines pay their true per-event storage cost.

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

struct Measurement {
  std::int64_t events = 0;
  double seconds = std::numeric_limits<double>::infinity();
  std::size_t peak = 0;
};

/// Hold-model churn: `pending` self-rescheduling handlers hop forward by a
/// pseudorandom delta until `total` events have fired. This is the
/// steady-state shape of a running simulation (constant event horizon).
template <typename E>
Measurement run_churn(int pending, std::int64_t total) {
  struct Ctx {
    E* eng;
    std::uint64_t rng;
    std::int64_t remaining;
  };
  struct Hop {
    Ctx* ctx;
    std::uint64_t pad[2];  // mimic captured scalars
    void operator()() const {
      Ctx& c = *ctx;
      if (c.remaining <= 0) return;
      --c.remaining;
      const std::int64_t delta =
          1 + static_cast<std::int64_t>(xorshift(c.rng) & 1023);
      c.eng->after(Duration{delta}, Hop{ctx, {pad[0] + 1, pad[1]}});
    }
  };

  E eng;
  Ctx ctx{&eng, 0x9E3779B97F4A7C15ull, total};
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < pending; ++i)
    eng.after(Duration{1 + static_cast<std::int64_t>(xorshift(ctx.rng) & 1023)},
              Hop{&ctx, {0, static_cast<std::uint64_t>(i)}});
  eng.run();
  const auto stop = std::chrono::steady_clock::now();

  Measurement m;
  m.events = static_cast<std::int64_t>(eng.events_processed());
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.peak = eng.peak_events_pending();
  return m;
}

/// Same-timestamp batches: `batches` timestamps, `width` events each —
/// the shape of bulk-synchronous steps where a whole rank population wakes
/// at once. Exercises the engine's batch-drain fast path.
template <typename E>
Measurement run_batches(int batches, int width) {
  struct Sink {
    std::uint64_t* acc;
    std::uint64_t pad[3];
    void operator()() const { *acc += pad[0]; }
  };

  E eng;
  std::uint64_t acc = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int b = 0; b < batches; ++b) {
    const SimTime t{static_cast<std::int64_t>(b) * 100};
    for (int w = 0; w < width; ++w)
      eng.at(t, Sink{&acc, {static_cast<std::uint64_t>(w), 0, 0}});
    // Drain between batches like a stepped simulation would.
    if ((b & 15) == 15) eng.run();
  }
  eng.run();
  const auto stop = std::chrono::steady_clock::now();
  if (acc == std::numeric_limits<std::uint64_t>::max())
    std::cerr << "";  // defeat dead-code elimination of the sink

  Measurement m;
  m.events = static_cast<std::int64_t>(eng.events_processed());
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.peak = eng.peak_events_pending();
  return m;
}

/// Prefill-drain: schedule `count` events at pseudorandom times, then run.
/// Worst-case heap pressure: the calendar holds everything at once.
template <typename E>
Measurement run_prefill(std::int64_t count) {
  struct Sink {
    std::uint64_t* acc;
    std::uint64_t pad[3];
    void operator()() const { *acc ^= pad[0]; }
  };

  E eng;
  std::uint64_t acc = 0;
  std::uint64_t rng = 0xD1B54A32D192ED03ull;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < count; ++i)
    eng.at(SimTime{static_cast<std::int64_t>(xorshift(rng) >> 24)},
           Sink{&acc, {rng, 0, 0}});
  eng.run();
  const auto stop = std::chrono::steady_clock::now();
  if (acc == std::numeric_limits<std::uint64_t>::max()) std::cerr << "";

  Measurement m;
  m.events = static_cast<std::int64_t>(eng.events_processed());
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.peak = eng.peak_events_pending();
  return m;
}

/// Times one full-stack experiment on the production engine (the
/// reference engine cannot run the full stack).
Measurement run_experiment(const core::WaveExperiment& exp) {
  const auto start = std::chrono::steady_clock::now();
  const auto result = core::run_wave_experiment(exp);
  const auto stop = std::chrono::steady_clock::now();

  Measurement m;
  m.events = static_cast<std::int64_t>(result.events_processed);
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.peak = result.peak_events_pending;
  return m;
}

/// End-to-end: one bulk-synchronous ring simulation.
Measurement run_ring(int ranks, int steps) {
  workload::RingSpec ring;
  ring.ranks = ranks;
  ring.direction = workload::Direction::bidirectional;
  ring.boundary = workload::Boundary::periodic;
  ring.steps = steps;
  ring.texec = milliseconds(1.0);

  core::WaveExperiment exp;
  exp.ring = ring;
  exp.cluster = core::cluster_for_ring(ring, false, 10);
  exp.cluster.system_noise = noise::NoiseSpec::system("emmy-smt-on");
  exp.delays = workload::single_delay(ranks / 3, 0, milliseconds(5.0));
  return run_experiment(exp);
}

/// End-to-end: one point shaped like idlewave_bench's decay_long scan
/// (Fig. 8/9): a bidirectional periodic ring of 256 KiB rendezvous
/// messages under injected noise E = 10% and a 12 ms delay. Noise and
/// handshakes make nearly every event timestamp distinct.
Measurement run_noisy_rendezvous(int ranks, int steps) {
  sweep::SweepSpec spec;
  spec.delay_ms = {12};
  spec.msg_bytes = {262144};
  spec.np = {ranks};
  spec.noise_E_percent = {10};
  spec.direction = {workload::Direction::bidirectional};
  spec.boundary = {workload::Boundary::periodic};
  spec.steps = steps;
  spec.min_idle = milliseconds(3.0);
  return run_experiment(sweep::expand(spec).front().exp);
}

template <typename WorkloadFn>
Measurement best_of(int reps, WorkloadFn wl) {
  Measurement best;
  for (int r = 0; r < reps; ++r) {
    const Measurement m = wl();
    if (m.seconds < best.seconds) best = m;
  }
  return best;
}

double events_per_sec(const Measurement& m) {
  return m.seconds > 0 ? static_cast<double>(m.events) / m.seconds : 0.0;
}

/// Wall time of one ring run. Unlike events/s it stays comparable when a
/// change alters how many events a message costs.
double ms_per_run(const Measurement& m) { return m.seconds * 1e3; }

struct Comparison {
  std::string name;
  Measurement naive;
  Measurement fast;
  [[nodiscard]] double speedup() const {
    const double n = events_per_sec(naive);
    return n > 0 ? events_per_sec(fast) / n : 0.0;
  }
};

/// One production-only end-to-end point (no naive counterpart).
struct EndToEnd {
  std::string name;
  int ranks;
  int steps;
  Measurement m;
};

double min_speedup(const std::vector<Comparison>& comparisons) {
  double lowest = std::numeric_limits<double>::infinity();
  for (const Comparison& c : comparisons)
    lowest = std::min(lowest, c.speedup());
  return lowest;
}

void write_json(const std::string& path, const std::string& mode,
                const std::vector<Comparison>& comparisons,
                const std::vector<EndToEnd>& rings) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.precision(6);
  out << std::fixed;
  out << "{\n"
      << "  \"bench\": \"perf_engine\",\n"
      << "  \"mode\": \"" << mode << "\",\n"
      << "  \"workloads\": {\n";
  double log_sum = 0.0;
  for (std::size_t i = 0; i < comparisons.size(); ++i) {
    const Comparison& c = comparisons[i];
    log_sum += std::log(c.speedup());
    out << "    \"" << c.name << "\": {\n"
        << "      \"events\": " << c.fast.events << ",\n"
        << "      \"naive_events_per_sec\": " << events_per_sec(c.naive)
        << ",\n"
        << "      \"fast_events_per_sec\": " << events_per_sec(c.fast) << ",\n"
        << "      \"speedup\": " << c.speedup() << ",\n"
        << "      \"naive_peak_calendar\": " << c.naive.peak << ",\n"
        << "      \"fast_peak_calendar\": " << c.fast.peak << "\n"
        << "    },\n";
  }
  for (std::size_t i = 0; i < rings.size(); ++i) {
    const EndToEnd& r = rings[i];
    out << "    \"" << r.name << "\": {\n"
        << "      \"ranks\": " << r.ranks << ",\n"
        << "      \"steps\": " << r.steps << ",\n"
        << "      \"events\": " << r.m.events << ",\n"
        << "      \"events_per_sec\": " << events_per_sec(r.m) << ",\n"
        << "      \"ms_per_run\": " << ms_per_run(r.m) << ",\n"
        << "      \"peak_calendar\": " << r.m.peak << "\n"
        << "    }" << (i + 1 < rings.size() ? "," : "") << "\n";
  }
  out << "  },\n"
      << "  \"summary\": {\n"
      << "    \"geomean_speedup\": "
      << std::exp(log_sum / static_cast<double>(comparisons.size())) << ",\n"
      << "    \"min_speedup\": " << min_speedup(comparisons) << "\n"
      << "  }\n"
      << "}\n";
}

int bench_main(int argc, char** argv) {
  if (const int rc = bench::refuse_if_instrumented("perf_engine")) return rc;
  const Cli cli(argc, argv);
  cli.allow_only(
      {"json", "out", "smoke", "reps", "churn", "pending", "batches",
       "prefill"});
  const bool smoke = cli.has("smoke");
  const int reps =
      static_cast<int>(cli.get_or("reps", std::int64_t{smoke ? 2 : 5}));
  const std::int64_t churn_total =
      cli.get_or("churn", std::int64_t{smoke ? 100'000 : 2'000'000});
  const int pending =
      static_cast<int>(cli.get_or("pending", std::int64_t{4096}));
  const int batches = static_cast<int>(
      cli.get_or("batches", std::int64_t{smoke ? 1'000 : 20'000}));
  const std::int64_t prefill =
      cli.get_or("prefill", std::int64_t{smoke ? 100'000 : 1'000'000});
  const int ring_ranks = smoke ? 40 : 100;
  const int ring_steps = smoke ? 10 : 50;
  const std::string out_path =
      cli.get("json").value_or(cli.get_or("out", "BENCH_engine.json"));

  bench::print_header("perf_engine",
                      "event-engine throughput: slab-backed radix-heap "
                      "calendar vs naive priority_queue baseline");

  std::vector<Comparison> comparisons;
  comparisons.push_back(
      {"churn",
       best_of(reps, [&] { return run_churn<NaiveEngine>(pending, churn_total); }),
       best_of(reps, [&] { return run_churn<sim::Engine>(pending, churn_total); })});
  comparisons.push_back(
      {"same_time_batches",
       best_of(reps, [&] { return run_batches<NaiveEngine>(batches, 64); }),
       best_of(reps, [&] { return run_batches<sim::Engine>(batches, 64); })});
  comparisons.push_back(
      {"prefill_drain",
       best_of(reps, [&] { return run_prefill<NaiveEngine>(prefill); }),
       best_of(reps, [&] { return run_prefill<sim::Engine>(prefill); })});

  for (const Comparison& c : comparisons) {
    std::cout << c.name << ": naive " << events_per_sec(c.naive) / 1e6
              << " Mev/s, fast " << events_per_sec(c.fast) / 1e6
              << " Mev/s, speedup " << c.speedup() << "x (peak calendar "
              << c.fast.peak << ")\n";
  }

  const int ring_reps = smoke ? 1 : 3;
  const int noisy_steps = smoke ? 10 : 60;
  const std::vector<EndToEnd> rings = {
      {"ring_end_to_end", ring_ranks, ring_steps,
       best_of(ring_reps, [&] { return run_ring(ring_ranks, ring_steps); })},
      {"ring_noisy_rendezvous", 128, noisy_steps,
       best_of(ring_reps,
               [&] { return run_noisy_rendezvous(128, noisy_steps); })}};
  for (const EndToEnd& r : rings) {
    std::cout << r.name << ": " << ms_per_run(r.m) << " ms/run, "
              << events_per_sec(r.m) / 1e6 << " Mev/s over " << r.m.events
              << " events (peak calendar " << r.m.peak << ")\n";
  }

  write_json(out_path, smoke ? "smoke" : "full", comparisons, rings);
  std::cout << "\nwrote " << out_path << "\n";
  if (const double lowest = min_speedup(comparisons); lowest < kMinSpeedup) {
    std::cerr << "perf_engine: min_speedup " << lowest << " is below the "
              << kMinSpeedup << "x gate\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return iw::bench::guarded_main(bench_main, argc, argv);
}
