// The message transport: eager and rendezvous protocol state machines on
// top of the network model.
//
// Timing model per message (Hockney + LogGOPS-style serialization):
//   * the sender's NIC serializes injections: a message occupies the NIC for
//     gap + bytes/bandwidth, control messages for gap only;
//   * arrival at the destination is injection-end + latency;
//   * a completed receive is charged the per-message overhead `o`.
//
// Eager protocol (bytes <= eager limit): the sender buffers the payload and
// its request completes immediately after the local overhead — the sender
// "can get rid of its messages" (paper Sec. IV). Data travels autonomously;
// unexpected arrivals queue at the receiver until a matching Irecv is
// posted. Eager payloads and rendezvous RTSs share one arrival-ordered
// unexpected queue, so a receive matches the earliest arrival from its
// (source, tag), whatever its protocol (MPI non-overtaking). A NIC-path
// send whose receive is already posted knows the receive's finish time
// (arrival + `o`) when it is sent and settles it then, with no arrival
// event, unless credits are tracked or another eager/RTS arrival to the
// receiver is still in flight (which might have to match that receive
// first). The eager limit is the fabric's
// `eager_limit_bytes`. An optional per-endpoint credit window
// (EagerPolicy::credit_window) bounds the eager messages in flight per
// pair and demotes further eager sends to rendezvous, modeling the
// footnote in the paper ("a limit to the internal buffers ... handled like
// a transition to a rendezvous protocol"); credits return when the
// receiver drains the message.
//
// Rendezvous protocol (bytes > eager limit): RTS control message to the
// receiver; when the RTS has arrived *and* a matching receive is posted, the
// payload moves under the configured RendezvousFlavor:
//   * two_sided — the receiver returns a CTS; on CTS arrival the sender
//     pushes the payload; the receiver's CPU completes the message (charged
//     `o`). Pushes are subject to the RendezvousPipelining semantic
//     (message.hpp) — the deferred_push rule is what makes bidirectional
//     rendezvous waves travel at sigma = 2. Like an eager send, a push over
//     the NIC knows both finish times when it is posted (the sender at
//     injection end, the receiver at arrival + `o`), so both requests settle
//     at push time and the payload leg schedules no event: a two-sided
//     rendezvous message costs two events, the RTS and CTS arrivals. Only
//     the intra-node memory-copy path, whose finish times the bandwidth
//     domains decide later, still runs on completion events.
//   * rdma_put — the CTS doubles as an RTR carrying the target address and
//     remote key; the sender's NIC puts the payload one-sidedly and chases
//     it with a FIN control message, whose arrival — not the payload's —
//     completes the receiver, with no receive-side CPU overhead.
//   * rdma_get — the RTS carries the source buffer's key; the receiver
//     injects a GET request, the source NIC streams the payload back
//     without CPU involvement (receiver completes at arrival, no `o`), and
//     a FIN from the receiver retires the sender's buffer.
// One-sided puts/gets are executed by the NIC and are never held behind the
// sender's other handshakes (deferred_push applies to two_sided only).
//
// Finite-injection NIC (NicModel::injection_depth > 0): each rank may have
// at most `depth` in-flight injections (posted sends whose NIC
// serialization has not finished). post_send beyond the budget lands in a
// per-rank retry backlog (LCI's bounded-queue-sends shape: push if the
// backlog is non-empty OR the budget is full, preserving FIFO) and is
// dispatched as earlier injections complete. A backlogged eager send does
// NOT complete locally at post time — its local completion (the overhead
// `o`) is charged when the entry actually reaches the NIC, which is what
// couples eager senders to NIC drain under load. Budgeted operations are
// the sender-initiated ones (eager payloads and RTS); protocol responses
// (CTS, GET requests, FINs, handshake-complete payload pushes) ride
// reserved response slots and bypass the budget, so the protocol can always
// make progress. Intra-node sends routed through memory domains never touch
// the NIC and are exempt as well.
//
// Hot-path layout: the steady-state send/receive path performs no hash
// lookup, no heap allocation, and no type-erased dispatch.
//   * In-flight rendezvous records live in a free-list-backed slab; the
//     slot index rides inside the RTS/CTS event closures (the simulated
//     control-message envelope), so every protocol step is one array index.
//   * Per-endpoint matching queues and the NIC retry backlog are RingQueues
//     inside pooled rank states that are retained across runs (see
//     reconfigure()). A rank gets its state the first time the protocol
//     touches it: a rank-indexed pointer table (8 bytes per rank) is null
//     for an unclaimed rank, and state() claims the next pooled state on
//     the first touch. A fast-forward run over 10^5 ranks therefore holds
//     states for its active set and rim only, and a claimed state stays at
//     its address for the run (the pool's chunks never move).
//   * Credit accounting uses a flat (src, dst) table sized from the
//     Topology — and is skipped entirely under the default unlimited
//     credits, where the demotion can never trigger. (The table is ranks^2
//     entries; credit ablations at several thousand ranks pay that
//     footprint knowingly.) Likewise the default unbounded NIC
//     (injection_depth 0) skips all budget machinery.
//   * Every request completion, eager local completions included, is one
//     direct call into the owning Process (on_request_settles_at) through a
//     rank-indexed Process* table; memory-domain lookups use a
//     BandwidthDomain* table the same way. Both tables are owned by the
//     Cluster; there are no callbacks.
// pool_stats() exposes the pools' allocation counters so tests can assert
// the zero-allocation claim.
#pragma once

#include <cstdint>
#include <vector>

#include "memory/bandwidth_domain.hpp"
#include "mpi/message.hpp"
#include "mpi/transport_config.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "support/object_pool.hpp"
#include "support/ring_queue.hpp"

namespace iw::mpi {

class Process;

class Transport {
 public:
  /// Counters for tests/ablations.
  struct Stats {
    std::uint64_t eager_sends = 0;
    std::uint64_t eager_at_post = 0;     ///< eager sends settled when posted
    std::uint64_t rendezvous_sends = 0;
    std::uint64_t credit_stalls = 0;     ///< eager-sized but out of credits
    std::uint64_t nic_backlogged = 0;    ///< posts that hit the retry backlog
    std::uint64_t deferred_pushes = 0;   ///< data pushes held by the rule
    std::uint64_t rdma_puts = 0;         ///< one-sided put payload transfers
    std::uint64_t rdma_gets = 0;         ///< one-sided get payload transfers
    std::uint64_t unexpected_eager = 0;  ///< eager arrivals before the recv
    std::uint64_t unexpected_rts = 0;    ///< RTS arrivals before the recv
  };

  /// Pool counters backing the steady-state zero-allocation claim: once the
  /// pools are warm, `allocations` must stop moving no matter how many more
  /// messages flow.
  struct PoolStats {
    std::uint64_t allocations = 0;    ///< total pool-growth (heap) events
    std::size_t rdv_slab_capacity = 0;
    std::size_t rdv_in_flight = 0;    ///< live rendezvous records
    std::size_t nic_backlog_depth = 0;  ///< entries waiting across all ranks
    std::size_t nic_inflight = 0;       ///< budgeted injections in flight
    std::size_t rank_states = 0;        ///< states this run has claimed
    std::size_t rank_state_capacity = 0;  ///< pooled states, claimed or not
  };

  Transport(sim::Engine& engine, const net::Topology& topo,
            const net::FabricProfile& fabric, const TransportConfig& config);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Completion wiring: `by_rank` points at a rank-indexed Process* table
  /// (owned by the caller, alive for the run). Every request settles through
  /// Process::on_request_settles_at; the table must be set before the first
  /// post and is cleared by reconfigure().
  void set_processes(Process* const* by_rank);

  /// Enables memory-bus accounting for intra-node payloads: a message
  /// between ranks of the same node is a pair of memory copies (source-side
  /// buffer copy, destination-side copy-out), each charged to the
  /// respective socket's bandwidth domain. This is the mechanism the paper
  /// invokes to explain why the Fig. 1 measurement falls a factor ~2 short
  /// of the Eq. 1 model, which "ignores the communication between
  /// processes within a node". Control messages stay on the NIC path.
  /// `by_rank` maps each rank to its socket's domain (entries may be null);
  /// pass an empty vector to disable. Copied into pooled storage — repeated
  /// wiring across reconfigure() runs allocates nothing once warm.
  void set_memory_domains(const std::vector<memory::BandwidthDomain*>& by_rank);

  /// Re-arms the transport for another run after the owning cluster reshaped
  /// its topology/fabric/config: protocol state and wiring are cleared, but
  /// every pool (rank states and their queues, rendezvous slab, credit
  /// table) keeps its storage. Each state the last run claimed is cleared,
  /// its table entry nulled and the state returned to the pool, so the
  /// next run starts with every rank unclaimed. A recycled cluster
  /// alternating a 10^5-rank fast-forward point and a 20-rank point clears
  /// a few hundred states, not 10^5, and no rank the last run touched can
  /// escape the clear. The rank table grows to the topology's rank count
  /// and never shrinks. Validates the config. Must be paired with an
  /// Engine::reset().
  void reconfigure(const net::FabricProfile& fabric,
                   const TransportConfig& config);

  /// Nonblocking send of `bytes` from `src` to `dst`.
  ///
  /// An eager send completes locally at a time known at post time (now +
  /// the per-message overhead `o` — the sender "can get rid of its
  /// messages"), so it settles `request` from inside this call, with no
  /// completion event; the caller must count the request open before
  /// posting. Rendezvous and NIC-backlogged sends settle later, once their
  /// finish time is known.
  void post_send(int src, int dst, int tag, std::int64_t bytes,
                 RequestId request);

  /// Nonblocking receive at `dst` for a message from `src`.
  void post_recv(int dst, int src, int tag, std::int64_t bytes,
                 RequestId request);

  /// Fast-forward support: posts an eager send on behalf of a rank that is
  /// not being event-simulated (a "ghost" at the rim of the active set).
  /// The ghost has no Process and no Request — the local completion time is
  /// discarded, because the analytic path already knows the ghost's
  /// timeline. Restricted to configurations where an eager send cannot
  /// interact with sender-side protocol state: ideal NIC (no injection
  /// budget), no credit window, eager-sized payload. The fast-forward
  /// planner guarantees these; the IW_REQUIREs re-prove them here.
  void post_ghost_send(int src, int dst, int tag, std::int64_t bytes);

  /// Protocol a send of this size would use right now (the static size rule
  /// plus the dynamic credit-exhaustion demotion).
  [[nodiscard]] WireProtocol protocol_for(int src, int dst,
                                          std::int64_t bytes) const;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t eager_limit() const {
    return fabric_.eager_limit_bytes;
  }
  [[nodiscard]] const TransportConfig& config() const { return config_; }
  [[nodiscard]] PoolStats pool_stats() const;
  /// Heap bytes of the rank-indexed state table, the transport's one cost
  /// per rank of the machine (8 B); the pooled states scale with the ranks
  /// the runs touch.
  [[nodiscard]] std::size_t rank_table_bytes() const {
    return by_rank_.capacity() * sizeof(RankState*);
  }

  /// Arms (or with nullptr disarms) the protocol flight recorder. The only
  /// hot-path cost while disarmed is one predicted-not-taken branch per
  /// protocol step. Cleared by reconfigure(); harnesses re-arm per run.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Flow-control shadow level for the metrics registry: total eager
  /// credits currently charged, summed over all (src, dst) pairs. Zero
  /// whenever credits are disabled or the transport is drained.
  [[nodiscard]] std::int64_t credits_outstanding() const {
    std::int64_t total = 0;
    for (const int c : eager_credits_) total += c;
    return total;
  }

  /// Structural audit of the protocol pools (audit builds only; a no-op
  /// otherwise): rendezvous free-list integrity (on-slab, no double-free),
  /// slot-liveness reconciliation against pool_stats() (live records ==
  /// slab extent - free list), deferred-push lists and backlogged RTS
  /// entries referencing only live slots, the queue canaries of every
  /// claimed rank state and its rank-table entry, NIC budget bounds
  /// (0 <= nic_inflight <= injection_depth) with shadow-total
  /// reconciliation of in-flight injections, backlog depth, and outstanding
  /// eager credits. It walks the claimed states only, so it costs what the
  /// run touched. reconfigure() runs it on entry — so every sweep-point
  /// recycle re-proves the pools — and again after clearing, when no record
  /// may remain live.
  void audit() const;

  /// End-to-end duration between posting a send and the matching receive
  /// completing, for a message posted into an otherwise idle transport with
  /// the receive pre-posted. This is the `Tcomm` that enters the analytic
  /// speed model (Eq. 2) for eager traffic; rendezvous adds the handshake
  /// and depends on the configured RendezvousFlavor.
  [[nodiscard]] Duration eager_transfer_time(int src, int dst,
                                             std::int64_t bytes) const;
  [[nodiscard]] Duration rendezvous_transfer_time(int src, int dst,
                                                  std::int64_t bytes) const;

 private:
  /// A receive no arrival matched yet; the message size is the sender's.
  struct PostedRecv {
    int src;
    int tag;
    RequestId request;
  };

  /// In-flight rendezvous record, pooled in `rdv_slab_` and addressed by
  /// slot index. The slot travels through the RTS/CTS/push event closures.
  struct RdvSend {
    Envelope envelope;
    RequestId send_request = -1;
    RequestId recv_request = -1;  ///< filled in when the CTS is issued
  };

  /// An arrival no posted receive matched yet: an eager payload (slot
  /// kEagerSlot) or a rendezvous RTS (its slab slot).
  struct Unexpected {
    std::uint32_t slot;
    Envelope envelope;
  };
  static constexpr std::uint32_t kEagerSlot = 0xFFFFFFFFu;

  /// One send waiting in the NIC retry backlog. Eager entries carry their
  /// envelope and the local request to complete at drain time; rendezvous
  /// entries are just the slab slot of the already-acquired record (the RTS
  /// is re-posted from the slab when the entry drains).
  struct BacklogEntry {
    enum class Kind : std::uint8_t { eager, rts };
    Kind kind = Kind::eager;
    Envelope envelope;
    RequestId request = -1;     ///< eager only: local completion at drain
    std::uint32_t slot = 0;     ///< rts only
  };

  struct RankState {
    RingQueue<PostedRecv> posted_recvs;
    RingQueue<Unexpected> unexpected;      ///< in arrival order
    RingQueue<BacklogEntry> nic_backlog;   ///< finite-injection retry queue
    SimTime nic_free = SimTime::zero();
    int nic_inflight = 0;                  ///< budgeted injections in flight
    int outstanding_handshakes = 0;        ///< RTS sent, CTS not yet received
    int arrivals_in_flight = 0;            ///< eager/RTS arrivals on the wire
    std::vector<std::uint32_t> deferred;   ///< handshake-complete, push held
  };
  // One RankState per touched rank: a full run of 10^5 ranks claims them
  // all, and then every 8 bytes here is ~0.8 MB of peak RSS. The audit layer
  // adds a canary to each queue.
  static_assert(IW_AUDIT_ENABLED || sizeof(RankState) <= 168,
                "RankState outgrew its 168-byte budget");

  [[nodiscard]] const net::LinkParams& link(int a, int b) const;
  /// The rank's state, claimed from the pool on the first touch.
  RankState& state(int rank) {
    RankState* s = by_rank_[static_cast<std::size_t>(rank)];
    if (s == nullptr) [[unlikely]]
      s = &claim(rank);
    return *s;
  }
  /// Binds the next pooled state (a clean one) to `rank`.
  RankState& claim(int rank);

  /// Injects a message into `src`'s NIC (link parameters already resolved
  /// by the caller — each protocol op classifies its link exactly once);
  /// returns the arrival time at the destination.
  SimTime inject(const net::LinkParams& p, int src, std::int64_t payload_bytes);

  /// inject() plus finite-NIC budget accounting: counts the injection
  /// against the rank's in-flight budget and schedules the drain event (at
  /// injection end) that releases it and dispatches backlogged sends.
  /// Callers on budget-exempt paths use inject() directly.
  SimTime inject_counted(const net::LinkParams& p, int src,
                         std::int64_t payload_bytes);

  /// True when a message from `src` over `cls` uses the NIC (as opposed to
  /// the intra-node memory-copy path) — the condition under which the
  /// finite-injection budget applies.
  [[nodiscard]] bool nic_path(net::LinkClass cls, int src) const {
    const bool same_node = cls == net::LinkClass::intra_socket ||
                           cls == net::LinkClass::inter_socket;
    return !(same_node && domain_of(src) != nullptr);
  }

  /// LCI's bounded-queue rule: a post must queue if anything is already
  /// queued (FIFO) or the budget is exhausted.
  [[nodiscard]] bool nic_saturated(const RankState& s) const {
    return !s.nic_backlog.empty() || s.nic_inflight >= nic_depth_;
  }

  void backlog_push(int src, BacklogEntry entry);
  void on_nic_drain(int src);

  /// Moves `bytes` of payload from src to dst over the already-classified
  /// link `cls`. `on_injected` (may be empty) fires when the sender has
  /// fully handed the data off (its local completion point for rendezvous
  /// sends); `on_arrival` (may be empty for one-sided puts, where the FIN
  /// completes the receiver instead) fires when the payload is available at
  /// the destination. Uses the NIC path across nodes and the memory-copy
  /// path within a node when domains are configured. NIC-path injections
  /// here are budget-exempt protocol responses. The continuations are
  /// one-shot move-only closures: they travel through the protocol layers
  /// by move, never by copy.
  void transfer(net::LinkClass cls, int src, int dst, std::int64_t bytes,
                sim::EventFn on_injected, sim::EventFn on_arrival);

  void check_ranks(int src, int dst) const {
    IW_REQUIRE(src >= 0 && dst >= 0 &&
                   static_cast<std::size_t>(src) < nranks_ &&
                   static_cast<std::size_t>(dst) < nranks_,
               "rank out of range");
  }

  /// Puts an eager payload on the wire. The caller settles the sender's
  /// request (ghost sends have none), so no id is taken. Wire-level only:
  /// protocol accounting (stats, credits) is charged by post_send at post
  /// time, so backlog drains do not double-count. A NIC send whose receive
  /// is already posted settles that receive here.
  void send_eager(net::LinkClass cls, int src, int dst, int tag,
                  std::int64_t bytes);
  /// Index of the first posted receive at `s` matching `envelope`, or
  /// s.posted_recvs.size() if none does.
  [[nodiscard]] std::size_t find_posted(const RankState& s,
                                        const Envelope& envelope) const;
  /// Settles the posted receive `i` of envelope.dst with the eager payload
  /// arriving at `arrival`, at arrival + `overhead`, and removes it.
  void settle_posted(const Envelope& envelope, std::size_t i, SimTime arrival,
                     Duration overhead);
  /// Acquires a rendezvous record and posts (or backlogs) its RTS.
  void send_rendezvous(net::LinkClass cls, int src, int dst, int tag,
                       std::int64_t bytes, RequestId request);
  void send_rts(net::LinkClass cls, std::uint32_t slot);
  void on_eager_arrival(const Envelope& envelope, Duration overhead);
  void on_rts_arrival(std::uint32_t slot);
  void issue_cts(std::uint32_t slot, RequestId recv_request);
  void on_cts_arrival(std::uint32_t slot);
  void push_data(std::uint32_t slot);
  void put_data(std::uint32_t slot);
  void issue_get(std::uint32_t slot, RequestId recv_request);
  void on_get_arrival(std::uint32_t slot);
  /// Settles `request` on `rank` at the absolute time `due` (>= now): one
  /// direct call into the rank's Process, no event.
  void complete(int rank, RequestId request, SimTime due);

  /// Returns one eager credit for a drained (src -> dst) message.
  void return_credit(int src, int dst) {
    IW_ASSERT(eager_credits_[pair_index(src, dst)] > 0,
              "eager credit returned that was never taken");
    --eager_credits_[pair_index(src, dst)];
    IW_AUDIT(--credits_outstanding_);
    trace(obs::TraceEvent::kCreditReturn, src, dst);
  }

  /// Flight-recorder sink: one predicted branch when disarmed, one ring
  /// store when armed. Every protocol step funnels through here; the
  /// armed path is marked unlikely so the disarmed hot path stays dense
  /// (records land in a cold block, record() itself is out of line).
  void trace(obs::TraceEvent ev, int rank, int peer = -1,
             std::int64_t bytes = 0,
             std::uint32_t slot = obs::Tracer::kNoSlot) {
    if (tracer_ != nullptr) [[unlikely]]
      tracer_->record(engine_.now(), ev, rank, peer, bytes, slot);
  }

  [[nodiscard]] memory::BandwidthDomain* domain_of(int rank) const {
    return use_domains_ ? domains_by_rank_[static_cast<std::size_t>(rank)]
                        : nullptr;
  }

  [[nodiscard]] std::size_t pair_index(int src, int dst) const {
    return static_cast<std::size_t>(src) * nranks_ +
           static_cast<std::size_t>(dst);
  }

  std::uint32_t acquire_rdv();
  void release_rdv(std::uint32_t slot);

#if IW_AUDIT_ENABLED
  /// Audit-only shadow of the rendezvous slab: 1 = slot holds an in-flight
  /// record. Lets every protocol step assert its slot is live (a stale slot
  /// index riding in an event closure is this module's nastiest failure
  /// mode) and lets audit() reconcile liveness against the free list.
  std::vector<std::uint8_t> rdv_live_;
  /// Audit-only shadow totals, maintained incrementally at every
  /// transaction site; audit() reconciles them against the per-rank / per-
  /// pair structures, catching a missed increment or decrement.
  std::int64_t nic_inflight_total_ = 0;
  std::int64_t nic_backlog_total_ = 0;
  std::int64_t credits_outstanding_ = 0;
  void assert_rdv_live(std::uint32_t slot, const char* step) const {
    IW_ASSERT(slot < rdv_slab_.size(),
              std::string(step) + ": rendezvous slot off the slab");
    IW_ASSERT(rdv_live_[slot] != 0,
              std::string(step) + ": rendezvous slot is not live "
                                  "(stale index in an event closure?)");
  }
#else
  void assert_rdv_live(std::uint32_t, const char*) const {}
#endif

  /// push_back that counts a capacity growth as a pool allocation.
  template <typename T>
  void push_counted(std::vector<T>& v, T value) {
    if (v.size() == v.capacity()) ++pool_allocations_;
    v.push_back(std::move(value));
  }

  sim::Engine& engine_;
  const net::Topology& topo_;
  net::FabricProfile fabric_;
  TransportConfig config_;
  std::size_t nranks_ = 0;

  // Config-derived fast flags: each optional subsystem is gated by one bool
  // so the ideal configuration pays nothing for the features it disables.
  bool nic_limited_ = false;   ///< injection_depth > 0
  int nic_depth_ = 0;
  bool track_credits_ = false; ///< credit_window > 0
  int credit_window_ = 0;
  RendezvousFlavor flavor_ = RendezvousFlavor::two_sided;

  // Rank-indexed wiring: direct calls, no callbacks.
  Process* const* procs_ = nullptr;
  std::vector<memory::BandwidthDomain*> domains_by_rank_;
  bool use_domains_ = false;

  // Pools. All storage survives reconfigure(); only logical state resets.
  /// Rank-indexed, grow-only; null while the rank is unclaimed.
  std::vector<RankState*> by_rank_;
  /// Pooled states: [0, claimed_.size()) are bound, the rest are clean.
  support::ObjectPool<RankState> states_;
  std::vector<int> claimed_;  ///< claimed_[i] holds states_[i]
  std::vector<RdvSend> rdv_slab_;
  std::vector<std::uint32_t> rdv_free_;
  std::vector<int> eager_credits_;  ///< ranks^2, in-flight msgs; credits only
  std::vector<std::uint32_t> deferred_scratch_;  ///< flush staging buffer
  std::uint64_t pool_allocations_ = 0;

  obs::Tracer* tracer_ = nullptr;

  Stats stats_;
};

}  // namespace iw::mpi
