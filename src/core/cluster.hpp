// Cluster: the one-call assembly of engine + topology + fabric + noise +
// processes. This is the main entry point of the idlewave public API:
//
//   core::ClusterConfig config;
//   config.topo = net::TopologySpec::one_rank_per_node(18);
//   core::Cluster cluster(config);
//   mpi::Trace trace = cluster.run(workload::build_ring(spec, delays));
//
// A Cluster instance executes one simulation per arming: the engine's clock
// cannot be rewound mid-run, but reset() re-arms the whole assembly for the
// next run while recycling every pool — the calendar slab, the transport's
// rank queues and rendezvous slab, the process and bandwidth-domain
// objects. Sweeps run thousands of points through one Cluster this way
// (see core::WaveRunner) instead of reconstructing the world per point. A
// reset cluster is byte-for-byte indistinguishable from a fresh one; the
// determinism suite and the recycled-cluster property test guard that
// equivalence. reset() clears only what the last run touched: the
// transport gives a rank its state on the first protocol touch, so after a
// fast-forward run over a 10^5-rank machine there are states for the active
// set and its rim only, and those are all the reset clears.
//
// Machine-scale layout: per-rank state lives in struct-of-arrays storage —
// each rank holds a 4-byte row index into the trace's rows, which index
// into shared slabs (mpi::Trace), and Process and BandwidthDomain objects
// come from chunked object pools with stable addresses. A process keeps no
// per-request storage: a request is a count in its WaitAll window. A run
// sums its programs' counters (Program::segment_bound(), step_marks()) and
// sizes both trace slabs once, exactly, before it assigns any row. The
// memory-per-rank budget this buys is surfaced as peak_bytes_per_rank().
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "memory/bandwidth_domain.hpp"
#include "mpi/process.hpp"
#include "mpi/trace.hpp"
#include "mpi/transport.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "noise/system_profiles.hpp"
#include "sim/engine.hpp"
#include "support/object_pool.hpp"

namespace iw::obs {
class MetricsRegistry;
class Tracer;
}  // namespace iw::obs

namespace iw::core {

/// Socket-level memory system parameters, enabling OpMemWork phases.
/// Defaults match the paper's Ivy Bridge sockets: bmem ~ 40 GB/s, and a
/// single core drawing ~1/6 of that (the paper observes PPN=1 node
/// performance at "about 1/6 of the saturated case").
struct MemorySystem {
  double socket_bandwidth_Bps = 40e9;
  double core_bandwidth_Bps = 6.7e9;

  bool operator==(const MemorySystem&) const = default;
};

struct ClusterConfig {
  net::TopologySpec topo;
  net::FabricProfile fabric = net::FabricProfile::infiniband_qdr();
  noise::NoiseSpec system_noise = noise::NoiseSpec::none();
  mpi::TransportConfig transport;
  std::optional<MemorySystem> memory;  ///< required for memory-bound work
  std::uint64_t seed = 0x1D1E57A7Eull;  // "idle state"
  /// Optional protocol flight recorder, armed through Engine, Transport and
  /// every Process for the run. Null (the default) costs nothing on the hot
  /// path. Non-owning; must outlive the run.
  obs::Tracer* tracer = nullptr;
  /// Optional metrics registry; when set, run() publishes the engine,
  /// transport, bandwidth-domain and tracer counters into it after the run.
  /// Non-owning; must outlive the run. Not synchronized — concurrent
  /// harnesses (sweep workers) publish through their own collector instead.
  obs::MetricsRegistry* metrics = nullptr;

  bool operator==(const ClusterConfig&) const = default;
};

/// One event-simulated rank of a fast-forward run and its program.
struct ActiveRank {
  int rank = 0;
  const mpi::Program* program = nullptr;
};

/// One pre-scheduled send posted on behalf of a rank outside the
/// fast-forward active set (see Cluster::run_fast_forward).
struct GhostSend {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::int64_t bytes = 0;
};

/// A batch of GhostSends posted at one simulated time: entries
/// [first, first + count) of the ghost-send array, in program order.
struct GhostPost {
  SimTime when;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs one program per rank to completion and returns the trace.
  /// `injected_noise` adds a second per-phase noise source on every rank —
  /// the paper's fine-grained exponential injection with mean E*Texec.
  /// Callable once per construction/reset().
  mpi::Trace run(const std::vector<mpi::Program>& programs,
                 const noise::NoiseSpec& injected_noise =
                     noise::NoiseSpec::none());

  /// Fast-forward run over an *active subset* of ranks: `active` lists
  /// the event-simulated ranks in ascending order with their programs;
  /// every other rank is silent, provably outside every delay/boundary
  /// light cone. Silent ranks get no Process and no trace row — the
  /// analytic layer (core::run_ring_fast_forward) synthesizes them
  /// afterwards. The rim of the active set still receives messages from its
  /// silent neighbors; those arrive as the pre-scheduled `ghost_posts`,
  /// each posting a batch of `ghost_sends` through the transport at the
  /// ghost rank's analytically known send time. All three spans must stay
  /// alive for the duration of the call. Costs O(active + ghost sends) on
  /// top of the rank-indexed tables. Requires the fast-forward eligibility
  /// envelope (no noise, no memory domains, no tracer); callable once per
  /// construction/reset().
  mpi::Trace run_fast_forward(std::span<const ActiveRank> active,
                              std::span<const GhostSend> ghost_sends,
                              std::span<const GhostPost> ghost_posts);

  /// Re-arms the cluster for another run under a (possibly different)
  /// configuration. The engine calendar, transport pools, and the process
  /// and domain objects are recycled; behaviour is identical to a freshly
  /// constructed Cluster with the same config. It clears what the last run
  /// touched: the engine, and the transport rank states that run claimed
  /// (every rank's after a full run, the active set's and its rim's after a
  /// fast-forward run). The topology is reshaped in place (its tables kept
  /// under unchanged tier sizes), and the next run re-points the process
  /// table.
  void reset(ClusterConfig config);

  [[nodiscard]] const net::Topology& topology() const { return topo_; }
  [[nodiscard]] const mpi::Transport::Stats& transport_stats() const {
    return transport_.stats();
  }
  [[nodiscard]] mpi::Transport::PoolStats transport_pool_stats() const {
    return transport_.pool_stats();
  }
  [[nodiscard]] std::uint64_t events_processed() const {
    return engine_.events_processed();
  }
  [[nodiscard]] std::size_t peak_events_pending() const {
    return engine_.peak_events_pending();
  }

  /// Simulation-state bytes per rank of the last run: trace slabs,
  /// process/domain pools, the rank-indexed wiring tables, and the
  /// topology's classification tables. The scale bench regression-gates
  /// this against the fixed per-rank budget.
  [[nodiscard]] double peak_bytes_per_rank() const {
    return peak_bytes_per_rank_;
  }

  /// End-to-end one-message communication time between two ranks, matching
  /// the protocol the transport would pick — the `Tcomm` for Eq. 2.
  [[nodiscard]] Duration message_time(int src, int dst,
                                      std::int64_t bytes) const;

 private:
  /// Binds pool process `slot` to `rank`: rebinds an existing object or
  /// constructs a new one in place. Stable addresses — never invalidates
  /// previously bound processes.
  mpi::Process& bind_process(std::size_t slot, int rank, mpi::Trace& trace);

  /// The one run body. `active_at(i)`, i < count, is the i-th bound rank
  /// and its program, ascending; each gets the next pool process, so in a
  /// full run (count == ranks) slot == rank. Ghost posts are scheduled
  /// before any process starts.
  template <typename ActiveAt>
  mpi::Trace run_programs(std::size_t count, ActiveAt active_at,
                          const noise::NoiseSpec& injected_noise,
                          std::span<const GhostSend> ghost_sends,
                          std::span<const GhostPost> ghost_posts);

  void wire_domains();
  void publish_metrics();
  void record_footprint(const mpi::Trace& trace);

  ClusterConfig config_;
  sim::Engine engine_;
  net::Topology topo_;
  mpi::Transport transport_;
  support::ObjectPool<memory::BandwidthDomain> domains_;
  std::size_t domains_in_use_ = 0;
  support::ObjectPool<mpi::Process> processes_;
  std::size_t bound_ = 0;  ///< pool processes the last run bound
  /// Rank-indexed hot-path wiring, grow-only; only bound ranks are set.
  std::vector<mpi::Process*> process_table_;
  std::vector<memory::BandwidthDomain*> domain_table_;
  double peak_bytes_per_rank_ = 0.0;
  bool ran_ = false;
};

}  // namespace iw::core
