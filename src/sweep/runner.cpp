#include "sweep/runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>

#include "obs/metrics.hpp"

namespace iw::sweep {
namespace {

/// Process-wide idle list of WaveRunners. A campaign worker takes one (or
/// builds one when the list is empty) and hands it back when it finishes,
/// so back-to-back campaigns — verify_scenario per scenario, the daemon's
/// batches — recycle their clusters instead of building and freeing one
/// per call; at 10^5 ranks that set-up and tear-down dwarfs the
/// fast-forwarded simulation. Every runner exists because a worker needed
/// it, so the list never holds more than the peak number of concurrent
/// workers. A worker whose point threw drops its runner.
class IdleRunners {
 public:
  std::unique_ptr<core::WaveRunner> take() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<core::WaveRunner> runner = std::move(idle_.back());
        idle_.pop_back();
        return runner;
      }
    }
    return std::make_unique<core::WaveRunner>();
  }

  /// Runs at the end of a worker, on a helper thread or between the
  /// caller's last point and its joins, so it must not throw: a runner the
  /// list has no room for is freed instead.
  void give_back(std::unique_ptr<core::WaveRunner> runner) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    try {
      idle_.push_back(std::move(runner));
    } catch (const std::bad_alloc&) {
    }
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<core::WaveRunner>> idle_;
};

IdleRunners& idle_runners() {
  static IdleRunners runners;
  return runners;
}

/// Shared state of one campaign execution. Workers claim point indices from
/// an atomic cursor; completion flags and the emit cursor live behind one
/// mutex (the per-point simulation dwarfs the critical section).
struct Collector {
  const std::vector<SweepPoint>& points;
  const RunnerOptions& options;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};  ///< set with `error`; stops the pool
  std::mutex mutex;
  std::vector<SweepRecord> records;
  std::vector<char> done;
  std::size_t emitted = 0;    ///< sinks received records [0, emitted)
  std::size_t completed = 0;  ///< total finished points
  std::exception_ptr error;

  explicit Collector(const std::vector<SweepPoint>& pts,
                     const RunnerOptions& opt)
      : points(pts), options(opt), records(pts.size()), done(pts.size(), 0) {}

  [[nodiscard]] bool cancelled() const {
    return options.cancel && options.cancel->load(std::memory_order_relaxed);
  }

  // Must hold `mutex`. Streams the contiguous completed prefix to the sinks.
  void flush_prefix() {
    while (emitted < done.size() && done[emitted]) {
      for (RecordSink* sink : options.sinks) sink->write(records[emitted]);
      ++emitted;
    }
  }

  // Must hold `mutex`. Folds one completed record's run counters into the
  // campaign's registry; the per-point members mirror the registry's
  // engine/transport metric ids, so the accumulation is table-driven.
  void publish_record(const SweepRecord& rec) {
    obs::MetricsRegistry& m = *options.metrics;
    m.add(obs::MetricId::engine_events_processed, rec.events_processed);
    m.set_max(obs::MetricId::engine_calendar_peak,
              static_cast<double>(rec.peak_events_pending));
#define IW_METRIC_PUBLISH(field) \
  m.add(obs::MetricId::transport_##field, rec.field);
    IW_METRIC_COLUMNS(IW_METRIC_PUBLISH)
#undef IW_METRIC_PUBLISH
    m.add(obs::MetricId::sweep_points_done, 1);
  }

  void worker() {
    // Each worker recycles one Cluster across the points it claims
    // (calendar slab, transport pools, process objects), and across
    // campaigns through the idle list; reused clusters are byte-identical
    // to fresh ones, so claim order stays irrelevant.
    std::unique_ptr<core::WaveRunner> lab;  // taken with the first point
    double busy_seconds = 0.0;
    for (;;) {
      // A failed point poisons the campaign; don't burn wall-clock
      // simulating points whose records can never be delivered.
      if (cancelled() || failed.load(std::memory_order_relaxed)) break;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) break;
      try {
        if (!lab) lab = idle_runners().take();
        const auto begin = std::chrono::steady_clock::now();
        SweepRecord rec = reduce(points[i], lab->run(points[i].exp));
        busy_seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
        std::lock_guard<std::mutex> lock(mutex);
        records[i] = std::move(rec);
        done[i] = 1;
        ++completed;
        if (options.metrics) publish_record(records[i]);
        flush_prefix();
        if (options.on_progress) options.on_progress(completed, points.size());
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        lab.reset();
        break;
      }
    }
    if (lab) idle_runners().give_back(std::move(lab));
    if (options.metrics) {
      std::lock_guard<std::mutex> lock(mutex);
      options.metrics->set_max(obs::MetricId::sweep_worker_busy_seconds,
                               busy_seconds);
    }
  }
};

}  // namespace

CampaignResult run_campaign(const std::vector<SweepPoint>& points,
                            const RunnerOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  Collector collector(points, options);

  const int threads = std::clamp<int>(
      options.threads, 1,
      std::max<int>(1, static_cast<int>(points.size())));
  // The calling thread is worker 0 and only threads - 1 helpers are
  // started, so a 1-thread campaign runs on the caller alone, whose caches
  // still hold the runner it returned to the idle list last time.
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(threads - 1));
  try {
    for (int t = 1; t < threads; ++t)
      helpers.emplace_back([&collector] { collector.worker(); });
  } catch (...) {
    // Thread creation failed (e.g. OS thread limit). Stop the helpers that
    // did start and join them before propagating — destroying a joinable
    // std::thread would std::terminate.
    collector.failed.store(true, std::memory_order_relaxed);
    for (std::thread& t : helpers) t.join();
    throw;
  }
  collector.worker();
  for (std::thread& t : helpers) t.join();

  if (collector.error) std::rethrow_exception(collector.error);

  // A cancelled campaign may have completed points beyond an unfinished
  // one; deliver them too (still in index order) so no finished work is
  // lost. Normal completion has already flushed everything.
  CampaignResult result;
  result.total_points = points.size();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!collector.done[i]) continue;
    if (i >= collector.emitted)
      for (RecordSink* sink : options.sinks) sink->write(collector.records[i]);
    result.records.push_back(std::move(collector.records[i]));
  }
  result.cancelled = result.records.size() < points.size();
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (options.metrics != nullptr) {
    obs::MetricsRegistry& m = *options.metrics;
    m.set(obs::MetricId::sweep_points_total,
          static_cast<double>(points.size()));
    m.set(obs::MetricId::sweep_elapsed_seconds, result.seconds);
    m.set(obs::MetricId::sweep_points_per_sec, result.points_per_sec());
    m.set(obs::MetricId::sweep_workers, static_cast<double>(threads));
  }
  return result;
}

CampaignResult run_campaign(const SweepSpec& spec,
                            const RunnerOptions& options) {
  return run_campaign(expand(spec), options);
}

}  // namespace iw::sweep
