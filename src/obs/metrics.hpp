// Unified metrics registry.
//
// Every metric the instrumented layers expose is declared exactly once in
// the IW_METRICS X-macro below; the MetricId enum, the name table, and the
// kind table are all generated from it. Storage is two flat preallocated
// arrays (counters as exact uint64, gauges as double) indexed by the
// compile-time MetricId — no map lookups, no string hashing, no allocation
// after construction.
//
// Publishing is pull-shaped: the simulation layers keep their own cheap
// local counters (Transport::Stats, Engine::events_processed, the
// BandwidthDomain submit counters) exactly as before, and a harness that
// wants a unified view calls publish(layer) after (or between) runs. The
// hot paths never touch the registry.
//
// Semantics:
//   * counter — monotone totals; publish() adds, snapshot deltas subtract.
//   * gauge   — level/peak values; publish() writes (peaks via set_max so
//     multiple workers' publishes combine), snapshot deltas keep the later
//     value.
//
// Each X entry is X(id, name, kind):
//   id   — MetricId enumerator and the registry index
//   name — stable dotted export name (JSON key)
//   kind — counter | gauge
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace iw::sim {
class Engine;
}
namespace iw::mpi {
class Transport;
}
namespace iw::memory {
class BandwidthDomain;
}

#define IW_METRICS(X)                                                       \
  X(engine_events_processed, "engine.events_processed", counter)            \
  X(engine_batches, "engine.batches", counter)                              \
  X(engine_calendar_peak, "engine.calendar_peak", gauge)                    \
  X(transport_eager_sends, "transport.eager_sends", counter)                \
  X(transport_eager_at_post, "transport.eager_at_post", counter)            \
  X(transport_rendezvous_sends, "transport.rendezvous_sends", counter)      \
  X(transport_credit_stalls, "transport.credit_stalls", counter)            \
  X(transport_nic_backlogged, "transport.nic_backlogged", counter)          \
  X(transport_deferred_pushes, "transport.deferred_pushes", counter)        \
  X(transport_rdma_puts, "transport.rdma_puts", counter)                    \
  X(transport_rdma_gets, "transport.rdma_gets", counter)                    \
  X(transport_unexpected_eager, "transport.unexpected_eager", counter)      \
  X(transport_unexpected_rts, "transport.unexpected_rts", counter)          \
  X(transport_credits_outstanding, "transport.credits_outstanding", gauge)  \
  X(pool_allocations, "pool.allocations", gauge)                            \
  X(pool_rdv_slab_capacity, "pool.rdv_slab_capacity", gauge)                \
  X(pool_rdv_in_flight, "pool.rdv_in_flight", gauge)                        \
  X(pool_nic_backlog_depth, "pool.nic_backlog_depth", gauge)                \
  X(pool_nic_inflight, "pool.nic_inflight", gauge)                          \
  X(pool_rank_states, "pool.rank_states", gauge)                            \
  X(pool_rank_state_capacity, "pool.rank_state_capacity", gauge)            \
  X(memory_jobs_submitted, "memory.jobs_submitted", counter)                \
  X(memory_bytes_submitted, "memory.bytes_submitted", counter)              \
  X(sweep_points_done, "sweep.points_done", counter)                        \
  X(sweep_points_total, "sweep.points_total", gauge)                        \
  X(sweep_elapsed_seconds, "sweep.elapsed_seconds", gauge)                  \
  X(sweep_points_per_sec, "sweep.points_per_sec", gauge)                    \
  X(sweep_workers, "sweep.workers", gauge)                                  \
  X(sweep_worker_busy_seconds, "sweep.worker_busy_seconds", gauge)          \
  X(tracer_records, "tracer.records", gauge)                                \
  X(tracer_dropped, "tracer.dropped", gauge)                                \
  X(engine_ffwd_skips, "engine.ffwd_skips", counter)                        \
  X(engine_ffwd_time_skipped, "engine.ffwd_time_skipped", counter)          \
  X(mem_peak_bytes_per_rank, "mem.peak_bytes_per_rank", gauge)              \
  X(service_queue_depth, "service.queue_depth", gauge)                      \
  X(service_clients_active, "service.clients_active", gauge)                \
  X(service_points_per_sec, "service.points_per_sec", gauge)                \
  X(service_cache_hits, "service.cache_hits", counter)                      \
  X(service_cache_misses, "service.cache_misses", counter)                  \
  X(service_points_computed, "service.points_computed", counter)            \
  X(service_jobs_submitted, "service.jobs_submitted", counter)              \
  X(service_jobs_rejected, "service.jobs_rejected", counter)                \
  X(service_jobs_cancelled, "service.jobs_cancelled", counter)              \
  X(service_sched_decisions, "service.sched_decisions", counter)            \
  X(service_cache_bytes, "service.cache_bytes", gauge)

namespace iw::obs {

class Tracer;

enum class MetricKind : std::uint8_t { counter, gauge };

/// Compile-time metric identifiers, one per IW_METRICS entry.
enum class MetricId : std::uint16_t {
#define IW_METRIC_ENUM(id, name, kind) id,
  IW_METRICS(IW_METRIC_ENUM)
#undef IW_METRIC_ENUM
      kCount,
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(MetricId::kCount);

/// Stable export name of a metric (the JSON key).
[[nodiscard]] const char* metric_name(MetricId id) noexcept;
[[nodiscard]] MetricKind metric_kind(MetricId id) noexcept;

/// A frozen copy of the registry's tables at one point in time.
struct MetricsSnapshot {
  std::array<std::uint64_t, kMetricCount> counters{};
  std::array<double, kMetricCount> gauges{};

  /// The change since `earlier`: counters subtract (saturating at zero so a
  /// cleared registry never produces huge wrapped deltas), gauges keep this
  /// snapshot's value.
  [[nodiscard]] MetricsSnapshot delta(const MetricsSnapshot& earlier) const;

  /// One flat JSON object, metric names as keys, counters as integers.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::uint64_t counter(MetricId id) const {
    return counters[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double gauge(MetricId id) const {
    return gauges[static_cast<std::size_t>(id)];
  }
};

/// The flat counter/gauge tables plus the publish seams. Not thread-safe;
/// harnesses publish from one thread (the sweep runner publishes under its
/// collector lock).
class MetricsRegistry {
 public:
  /// Adds to a counter metric.
  void add(MetricId id, std::uint64_t delta) {
    counters_[static_cast<std::size_t>(id)] += delta;
  }
  /// Writes a gauge metric.
  void set(MetricId id, double value) {
    gauges_[static_cast<std::size_t>(id)] = value;
  }
  /// Writes a gauge metric only if `value` exceeds the current one (peaks,
  /// capacities — combines across multiple publishers).
  void set_max(MetricId id, double value) {
    double& g = gauges_[static_cast<std::size_t>(id)];
    if (value > g) g = value;
  }

  [[nodiscard]] std::uint64_t counter(MetricId id) const {
    return counters_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double gauge(MetricId id) const {
    return gauges_[static_cast<std::size_t>(id)];
  }

  /// Publish seams: fold one layer's local counters into the registry.
  /// Counter sources must be published once per run (they add); gauge
  /// sources combine via set/set_max and are safe to re-publish.
  void publish(const sim::Engine& engine);
  void publish(const mpi::Transport& transport);
  void publish(const memory::BandwidthDomain& domain);
  void publish(const Tracer& tracer);

  [[nodiscard]] MetricsSnapshot snapshot() const {
    MetricsSnapshot s;
    s.counters = counters_;
    s.gauges = gauges_;
    return s;
  }

  /// Zeroes every table (capacity-free; the tables are inline arrays).
  void clear() {
    counters_.fill(0);
    gauges_.fill(0.0);
  }

 private:
  std::array<std::uint64_t, kMetricCount> counters_{};
  std::array<double, kMetricCount> gauges_{};
};

}  // namespace iw::obs
