#include "core/cluster.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "support/error.hpp"

namespace iw::core {
namespace {

/// Stream-purpose identifiers for Rng::for_stream.
constexpr std::uint64_t kSystemNoiseStream = 0;
constexpr std::uint64_t kInjectedNoiseStream = 1;

/// Calendar pre-sizing of the closure slab and its free list: a ring step
/// wakes every rank and keeps a handful of protocol events per rank in
/// flight, but at machine scale (100k+ ranks) the simultaneously pending
/// population stays far below ranks*8 — the cap keeps the pre-allocation
/// bounded while the calendar still grows on demand if a workload genuinely
/// needs more. The radix buckets are not pre-sized: they grow on demand and
/// keep their capacity across Engine::reset().
std::size_t calendar_budget(int ranks) {
  return std::min<std::size_t>(static_cast<std::size_t>(ranks) * 8, 262144);
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      topo_(config_.topo),
      transport_(engine_, topo_, config_.fabric, config_.transport) {
  engine_.reserve_events(calendar_budget(topo_.ranks()));
}

void Cluster::reset(ClusterConfig config) {
  config_ = std::move(config);
  engine_.reset();
  topo_.reset(config_.topo);
  // Keep the constructor's calendar pre-sizing when reshaping larger.
  engine_.reserve_events(calendar_budget(topo_.ranks()));
  transport_.reconfigure(config_.fabric, config_.transport);
  ran_ = false;
  // Post-conditions of the recycle: the next run must be indistinguishable
  // from a fresh construction. State leaking through a reset cluster is
  // exactly the bug class that would silently bend sweep physics, so audit
  // builds re-prove it at every sweep point.
  IW_ASSERT(engine_.events_pending() == 0 && engine_.now() == SimTime::zero(),
            "Cluster::reset post-condition: engine not pristine");
  IW_ASSERT(transport_.pool_stats().rdv_in_flight == 0 &&
                transport_.stats().eager_sends == 0 &&
                transport_.stats().rendezvous_sends == 0,
            "Cluster::reset post-condition: transport state leaked");
  IW_AUDIT(transport_.audit());
}

Duration Cluster::message_time(int src, int dst, std::int64_t bytes) const {
  if (transport_.protocol_for(src, dst, bytes) == mpi::WireProtocol::eager)
    return transport_.eager_transfer_time(src, dst, bytes);
  return transport_.rendezvous_transfer_time(src, dst, bytes);
}

mpi::Process& Cluster::bind_process(std::size_t slot, int rank,
                                    mpi::Trace& trace) {
  if (slot < processes_.size()) {
    mpi::Process& proc = processes_[slot];
    proc.reset(rank, trace);
    return proc;
  }
  IW_ASSERT(slot == processes_.size(),
            "process pool slots must be bound in order");
  return processes_.emplace(rank, engine_, transport_, trace);
}

void Cluster::wire_domains() {
  // Socket bandwidth domains (only when memory-bound work is configured).
  // They serve both OpMemWork phases and — via the transport — intra-node
  // message copies, which contend with computation for the memory bus.
  // Domain objects are pooled: reset() re-arms existing ones, and slots
  // beyond this run's socket count simply sit idle (the engine reset
  // guarantees they hold no events).
  const std::size_t sockets =
      config_.memory ? static_cast<std::size_t>(topo_.sockets()) : 0;
  for (std::size_t s = 0; s < sockets; ++s) {
    if (s < domains_.size()) {
      domains_[s].reset(config_.memory->socket_bandwidth_Bps,
                        config_.memory->core_bandwidth_Bps);
    } else {
      domains_.emplace(engine_, config_.memory->socket_bandwidth_Bps,
                       config_.memory->core_bandwidth_Bps);
    }
  }
  domains_in_use_ = sockets;
  domain_table_.clear();
  if (sockets > 0) {
    domain_table_.reserve(static_cast<std::size_t>(topo_.ranks()));
    for (int rank = 0; rank < topo_.ranks(); ++rank)
      domain_table_.push_back(
          &domains_[static_cast<std::size_t>(topo_.socket_of(rank))]);
  }
  transport_.set_memory_domains(domain_table_);
}

void Cluster::publish_metrics() {
  if (config_.metrics == nullptr) return;
  config_.metrics->publish(engine_);
  config_.metrics->publish(transport_);
  for (std::size_t s = 0; s < domains_in_use_; ++s)
    config_.metrics->publish(domains_[s]);
  if (config_.tracer != nullptr) config_.metrics->publish(*config_.tracer);
}

void Cluster::record_footprint(const mpi::Trace& trace) {
  // The per-rank budget counts the rank-proportional simulation state: the
  // trace slabs, the process/domain pools, the rank-indexed wiring tables
  // (the transport's state table among them), and the topology's
  // classification tables. (The calendar and the transport's pooled rank
  // states scale with the *active* working set, not with ranks, and are
  // deliberately excluded.)
  std::size_t bytes = trace.bytes_used();
  bytes += processes_.bytes_used();
  bytes += domains_.bytes_used();
  bytes += process_table_.capacity() * sizeof(mpi::Process*);
  bytes += domain_table_.capacity() * sizeof(memory::BandwidthDomain*);
  bytes += transport_.rank_table_bytes();
  const int tiers = topo_.has_switch_tier() ? 3 : 2;
  bytes += static_cast<std::size_t>(topo_.ranks()) *
           static_cast<std::size_t>(tiers) * sizeof(std::int32_t);
  peak_bytes_per_rank_ = static_cast<double>(bytes) /
                         static_cast<double>(std::max(1, topo_.ranks()));
  if (config_.metrics != nullptr)
    config_.metrics->set_max(obs::MetricId::mem_peak_bytes_per_rank,
                             peak_bytes_per_rank_);
}

template <typename ActiveAt>
mpi::Trace Cluster::run_programs(std::size_t count, ActiveAt active_at,
                                 const noise::NoiseSpec& injected_noise,
                                 std::span<const GhostSend> ghost_sends,
                                 std::span<const GhostPost> ghost_posts) {
  IW_REQUIRE(!ran_, "Cluster::run requires a fresh or reset() instance");
  const auto nranks = static_cast<std::size_t>(topo_.ranks());
  const bool full = count == nranks;
  ran_ = true;

  // Every bound rank's trace row sits in the trace's two slabs, sized
  // once, before any binding, so neither reallocates while rows are
  // assigned. A fast-forward run holds rows for its active set only.
  std::size_t segments = 0;
  std::size_t steps = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const ActiveRank a = active_at(i);
    IW_REQUIRE(a.program != nullptr, "active ranks need a program");
    IW_REQUIRE(a.rank >= 0 && static_cast<std::size_t>(a.rank) < nranks &&
                   (i == 0 || active_at(i - 1).rank < a.rank),
               "active ranks must be ascending and in range");
    segments += a.program->segment_bound();
    steps += a.program->step_marks();
  }
  mpi::Trace trace(topo_.ranks(), segments, steps,
                   full ? std::nullopt : std::optional<std::size_t>(count));

  wire_domains();

  // The process table is grow-only: the last run's entries are nulled and
  // this run's set, so silent ranks read null. That is safe because a
  // silent rank never posts a receive: arrivals from ghosts into silent
  // destinations park in the transport's unexpected queues and are never
  // completed, so procs_[silent] is never dereferenced.
  if (process_table_.size() < nranks) process_table_.resize(nranks, nullptr);
  for (std::size_t slot = 0; slot < bound_; ++slot)
    process_table_[static_cast<std::size_t>(processes_[slot].rank())] =
        nullptr;
  bound_ = 0;  // processes bound, and the next pool slot
  for (std::size_t i = 0; i < count; ++i) {
    const auto [rank, program] = active_at(i);
    trace.reserve_rank(rank, program->segment_bound(), program->step_marks());
    mpi::Process& proc = bind_process(bound_++, rank, trace);
    proc.set_program(program);
    const auto stream = [&](std::uint64_t purpose) {
      return Rng::for_stream(config_.seed, static_cast<std::uint64_t>(rank),
                             purpose);
    };
    if (config_.system_noise.kind != noise::NoiseSpec::Kind::none)
      proc.add_noise(config_.system_noise, stream(kSystemNoiseStream));
    if (injected_noise.kind != noise::NoiseSpec::Kind::none)
      proc.add_noise(injected_noise, stream(kInjectedNoiseStream));
    if (!domain_table_.empty())
      proc.set_domain(domain_table_[static_cast<std::size_t>(rank)]);
    process_table_[static_cast<std::size_t>(rank)] = &proc;
  }

  // Rank-indexed completion wiring: the transport calls straight into
  // Process::on_request_settles_at, no type-erased hop.
  transport_.set_processes(process_table_.data());

  // Flight-recorder wiring: one pointer per layer, null in untraced runs.
  engine_.set_tracer(config_.tracer);
  transport_.set_tracer(config_.tracer);
  if (config_.tracer != nullptr)
    for (std::size_t r = 0; r < bound_; ++r)
      processes_[r].set_tracer(config_.tracer);

  // Pre-schedule the ghost traffic: each post fires at the silent sender's
  // analytically known compute-end time and injects its batch in program
  // order, reproducing the NIC serialization a simulated sender would have.
  for (const auto& post : ghost_posts) {
    IW_REQUIRE(static_cast<std::size_t>(post.first) + post.count <=
                   ghost_sends.size(),
               "ghost post window out of range");
    engine_.at(post.when, [this, ghost_sends, post] {
      for (std::uint32_t i = 0; i < post.count; ++i) {
        const GhostSend& g = ghost_sends[post.first + i];
        transport_.post_ghost_send(g.src, g.dst, g.tag, g.bytes);
      }
    });
  }

  for (std::size_t r = 0; r < bound_; ++r) processes_[r].start();
  engine_.run();

  for (std::size_t r = 0; r < bound_; ++r)
    IW_CHECK(processes_[r].done(),
             "deadlock: a process never finished its program");

  publish_metrics();
  record_footprint(trace);

  return trace;
}

mpi::Trace Cluster::run(const std::vector<mpi::Program>& programs,
                        const noise::NoiseSpec& injected_noise) {
  IW_REQUIRE(programs.size() == static_cast<std::size_t>(topo_.ranks()),
             "need exactly one program per rank");
  return run_programs(
      programs.size(),
      [&programs](std::size_t rank) {
        return ActiveRank{static_cast<int>(rank), &programs[rank]};
      },
      injected_noise, {}, {});
}

mpi::Trace Cluster::run_fast_forward(std::span<const ActiveRank> active,
                                     std::span<const GhostSend> ghost_sends,
                                     std::span<const GhostPost> ghost_posts) {
  // The fast-forward envelope (core::plan_fast_forward) excludes every
  // feature that could couple a silent rank back into the simulation;
  // re-prove the structural parts here.
  IW_REQUIRE(!config_.memory,
             "fast-forward runs cannot use memory domains");
  IW_REQUIRE(config_.system_noise.kind == noise::NoiseSpec::Kind::none,
             "fast-forward runs cannot carry system noise");
  IW_REQUIRE(config_.tracer == nullptr,
             "fast-forward runs cannot be flight-recorded");
  IW_REQUIRE(active.size() <= static_cast<std::size_t>(topo_.ranks()),
             "more active ranks than the machine has");
  return run_programs(
      active.size(), [active](std::size_t i) { return active[i]; },
      noise::NoiseSpec::none(), ghost_sends, ghost_posts);
}

}  // namespace iw::core
