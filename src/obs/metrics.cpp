#include "obs/metrics.hpp"

#include <string>

#include "memory/bandwidth_domain.hpp"
#include "mpi/transport.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "support/csv.hpp"

namespace iw::obs {

namespace {

struct MetricInfo {
  const char* name;
  MetricKind kind;
};

constexpr MetricInfo kMetricTable[kMetricCount] = {
#define IW_METRIC_INFO(id, name, kind) {name, MetricKind::kind},
    IW_METRICS(IW_METRIC_INFO)
#undef IW_METRIC_INFO
};

}  // namespace

const char* metric_name(MetricId id) noexcept {
  return kMetricTable[static_cast<std::size_t>(id)].name;
}

MetricKind metric_kind(MetricId id) noexcept {
  return kMetricTable[static_cast<std::size_t>(id)].kind;
}

MetricsSnapshot MetricsSnapshot::delta(const MetricsSnapshot& earlier) const {
  MetricsSnapshot d;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (kMetricTable[i].kind == MetricKind::counter) {
      d.counters[i] =
          counters[i] >= earlier.counters[i] ? counters[i] - earlier.counters[i]
                                             : 0;
    } else {
      d.gauges[i] = gauges[i];
    }
  }
  return d;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (i != 0) out += ",";
    out += json_str(kMetricTable[i].name);
    out += ":";
    if (kMetricTable[i].kind == MetricKind::counter) {
      out += std::to_string(counters[i]);
    } else {
      out += csv_num(gauges[i]);
    }
  }
  out += "}";
  return out;
}

void MetricsRegistry::publish(const sim::Engine& engine) {
  add(MetricId::engine_events_processed, engine.events_processed());
  add(MetricId::engine_batches, engine.batches());
  set_max(MetricId::engine_calendar_peak,
          static_cast<double>(engine.peak_events_pending()));
}

void MetricsRegistry::publish(const mpi::Transport& transport) {
  // Stats: per-run protocol counters (cleared by reconfigure(), so one
  // publish per run adds exactly that run's traffic). The stats-in-registry
  // lint rule checks that every Transport::Stats / PoolStats field appears
  // here — extend both when extending either.
  const mpi::Transport::Stats& s = transport.stats();
  add(MetricId::transport_eager_sends, s.eager_sends);
  add(MetricId::transport_eager_at_post, s.eager_at_post);
  add(MetricId::transport_rendezvous_sends, s.rendezvous_sends);
  add(MetricId::transport_credit_stalls, s.credit_stalls);
  add(MetricId::transport_nic_backlogged, s.nic_backlogged);
  add(MetricId::transport_deferred_pushes, s.deferred_pushes);
  add(MetricId::transport_rdma_puts, s.rdma_puts);
  add(MetricId::transport_rdma_gets, s.rdma_gets);
  add(MetricId::transport_unexpected_eager, s.unexpected_eager);
  add(MetricId::transport_unexpected_rts, s.unexpected_rts);
  // PoolStats: pool levels survive reconfigure() (allocations is the
  // lifetime pool-growth total), so they land as gauges, peaks combining
  // across workers via set_max.
  const mpi::Transport::PoolStats p = transport.pool_stats();
  set_max(MetricId::pool_allocations, static_cast<double>(p.allocations));
  set_max(MetricId::pool_rdv_slab_capacity,
          static_cast<double>(p.rdv_slab_capacity));
  set_max(MetricId::pool_rdv_in_flight, static_cast<double>(p.rdv_in_flight));
  set_max(MetricId::pool_nic_backlog_depth,
          static_cast<double>(p.nic_backlog_depth));
  set_max(MetricId::pool_nic_inflight, static_cast<double>(p.nic_inflight));
  set_max(MetricId::pool_rank_states, static_cast<double>(p.rank_states));
  set_max(MetricId::pool_rank_state_capacity,
          static_cast<double>(p.rank_state_capacity));
  // Flow-control shadow level (nonzero only mid-run or after a stall).
  set_max(MetricId::transport_credits_outstanding,
          static_cast<double>(transport.credits_outstanding()));
}

void MetricsRegistry::publish(const memory::BandwidthDomain& domain) {
  add(MetricId::memory_jobs_submitted, domain.jobs_submitted());
  add(MetricId::memory_bytes_submitted, domain.bytes_submitted());
}

void MetricsRegistry::publish(const Tracer& tracer) {
  set_max(MetricId::tracer_records, static_cast<double>(tracer.size()));
  set_max(MetricId::tracer_dropped, static_cast<double>(tracer.dropped()));
}

}  // namespace iw::obs
