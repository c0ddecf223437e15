#include "mpi/transport.hpp"

#include <algorithm>
#include <utility>

#include "mpi/process.hpp"
#include "support/error.hpp"

namespace iw::mpi {

Transport::Transport(sim::Engine& engine, const net::Topology& topo,
                     const net::FabricProfile& fabric,
                     const TransportConfig& config)
    : engine_(engine), topo_(topo) {
  reconfigure(fabric, config);
}

void Transport::reconfigure(const net::FabricProfile& fabric,
                            const TransportConfig& config) {
  // Reconcile the pools the previous run left behind before recycling them.
  // A mid-run stop() legitimately leaves in-flight rendezvous records, but
  // the free list, liveness shadow, and queue canaries must still agree.
  IW_AUDIT(audit());
  config.validate();
  // Fabric coverage: every link class this topology can produce must be
  // priced. A hierarchical topology (switch tier) paired with a
  // hand-built fabric that stops at inter_node would otherwise divide by a
  // zero bandwidth deep inside the first cross-switch transfer.
  for (int c = 0; c < net::kLinkClassCount; ++c) {
    const auto cls = static_cast<net::LinkClass>(c);
    IW_REQUIRE(!topo_.produces(cls) || fabric.params(cls).bandwidth_Bps > 0,
               "fabric profile '" + fabric.name + "' does not price the " +
                   net::to_string(cls) +
                   " link class, which this topology produces");
  }
  fabric_ = fabric;
  config_ = config;

  // Config-derived fast flags: every optional subsystem (finite NIC,
  // credit window) costs nothing when disabled.
  nic_limited_ = config_.nic.injection_depth > 0;
  nic_depth_ = config_.nic.injection_depth;
  track_credits_ = config_.eager.credit_window > 0;
  credit_window_ = config_.eager.credit_window;
  flavor_ = config_.rendezvous.flavor;

  // Clear and release every state the last run claimed; the rest of the
  // pool is clean already. The rank table grows (never shrinks, like the
  // Cluster's process table) with every entry null.
  for (std::size_t i = 0; i < claimed_.size(); ++i) {
    RankState& s = states_[i];
    s.posted_recvs.clear();
    s.unexpected.clear();
    s.nic_backlog.clear();
    s.nic_free = SimTime::zero();
    s.nic_inflight = 0;
    s.outstanding_handshakes = 0;
    s.arrivals_in_flight = 0;
    s.deferred.clear();
    by_rank_[static_cast<std::size_t>(claimed_[i])] = nullptr;
  }
  claimed_.clear();
  nranks_ = static_cast<std::size_t>(topo_.ranks());
  if (by_rank_.size() < nranks_) by_rank_.resize(nranks_, nullptr);

  rdv_slab_.clear();
  rdv_free_.clear();
#if IW_AUDIT_ENABLED
  rdv_live_.clear();
  nic_inflight_total_ = 0;
  nic_backlog_total_ = 0;
  credits_outstanding_ = 0;
#endif

  // Credit accounting exists only to drive the eager demotion; under the
  // default unlimited window the steady-state path skips it entirely (no
  // table, no per-message arithmetic).
  if (track_credits_) {
    eager_credits_.assign(nranks_ * nranks_, 0);
  } else {
    eager_credits_.clear();
  }

  procs_ = nullptr;
  domains_by_rank_.clear();
  use_domains_ = false;
  tracer_ = nullptr;
  stats_ = Stats{};

  // Post-condition: a reconfigured transport holds no protocol state — the
  // pool accounting must balance back to zero in-flight records.
  IW_ASSERT(pool_stats().rdv_in_flight == 0,
            "reconfigure() left rendezvous records in flight");
  IW_ASSERT(pool_stats().nic_backlog_depth == 0 &&
                pool_stats().nic_inflight == 0,
            "reconfigure() left NIC budget state behind");
  IW_AUDIT(audit());
}

void Transport::set_processes(Process* const* by_rank) { procs_ = by_rank; }

Transport::RankState& Transport::claim(int rank) {
  const std::size_t i = claimed_.size();
  if (i == states_.size()) {
    ++pool_allocations_;
    states_.emplace();
  }
  push_counted(claimed_, rank);
  RankState& s = states_[i];
  by_rank_[static_cast<std::size_t>(rank)] = &s;
  return s;
}

void Transport::set_memory_domains(
    const std::vector<memory::BandwidthDomain*>& by_rank) {
  IW_REQUIRE(by_rank.empty() || by_rank.size() == nranks_,
             "memory-domain table must have one entry per rank");
  domains_by_rank_.assign(by_rank.begin(), by_rank.end());
  use_domains_ = !domains_by_rank_.empty();
}

Transport::PoolStats Transport::pool_stats() const {
  PoolStats p;
  p.allocations = pool_allocations_;
  // Every pooled state, claimed or not: a state keeps the queue capacity
  // an earlier run grew, and an unclaimed one holds no backlog or budget.
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const RankState& s = states_[i];
    p.allocations +=
        s.posted_recvs.grows() + s.unexpected.grows() + s.nic_backlog.grows();
    p.nic_backlog_depth += s.nic_backlog.size();
    p.nic_inflight += static_cast<std::size_t>(s.nic_inflight);
  }
  p.rank_states = claimed_.size();
  p.rank_state_capacity = states_.size();
  p.rdv_slab_capacity = rdv_slab_.capacity();
  p.rdv_in_flight = rdv_slab_.size() - rdv_free_.size();
  return p;
}

std::uint32_t Transport::acquire_rdv() {
  if (!rdv_free_.empty()) {
    const std::uint32_t slot = rdv_free_.back();
    rdv_free_.pop_back();
    IW_ASSERT(rdv_live_[slot] == 0, "free list handed out a live slot");
    IW_AUDIT(rdv_live_[slot] = 1);
    return slot;
  }
  if (rdv_slab_.size() == rdv_slab_.capacity()) ++pool_allocations_;
  rdv_slab_.emplace_back();
  IW_AUDIT(rdv_live_.push_back(1));
  return static_cast<std::uint32_t>(rdv_slab_.size() - 1);
}

void Transport::release_rdv(std::uint32_t slot) {
  assert_rdv_live(slot, "release_rdv");
  IW_AUDIT(rdv_live_[slot] = 0);
  // Poison the vacated record so a stale slot index riding in a not-yet-
  // fired closure reads loud defaults instead of plausible stale state.
  IW_AUDIT(rdv_slab_[slot] = RdvSend{});
  push_counted(rdv_free_, slot);
}

void Transport::audit() const {
#if IW_AUDIT_ENABLED
  IW_ASSERT(rdv_live_.size() == rdv_slab_.size(),
            "liveness shadow out of step with the rendezvous slab");
  std::vector<std::uint8_t> on_free_list(rdv_slab_.size(), 0);
  for (const std::uint32_t slot : rdv_free_) {
    IW_ASSERT(slot < rdv_slab_.size(),
              "rendezvous free list references a slot off the slab");
    IW_ASSERT(!on_free_list[slot], "rendezvous slot freed twice");
    IW_ASSERT(rdv_live_[slot] == 0, "live rendezvous slot on the free list");
    on_free_list[slot] = 1;
  }
  std::size_t live = 0;
  for (const std::uint8_t l : rdv_live_) live += l;
  // The same reconciliation pool_stats() publishes: every slab slot is
  // either free or in flight, never both, never neither.
  IW_ASSERT(live + rdv_free_.size() == rdv_slab_.size(),
            "rendezvous accounting broken: live + free != slab extent");
  IW_ASSERT(pool_stats().rdv_in_flight == live,
            "pool_stats in-flight count disagrees with the liveness shadow");
  std::int64_t inflight_sum = 0;
  std::int64_t backlog_sum = 0;
  for (std::size_t i = 0; i < claimed_.size(); ++i) {
    const RankState& s = states_[i];
    IW_ASSERT(static_cast<std::size_t>(claimed_[i]) < by_rank_.size() &&
                  by_rank_[static_cast<std::size_t>(claimed_[i])] == &s,
              "claimed rank state not wired into the rank table");
    s.posted_recvs.audit();
    s.unexpected.audit();
    s.nic_backlog.audit();
    IW_ASSERT(s.outstanding_handshakes >= 0,
              "negative outstanding handshake count");
    IW_ASSERT(s.arrivals_in_flight >= 0, "negative in-flight arrival count");
    for (const std::uint32_t slot : s.deferred)
      assert_rdv_live(slot, "deferred push list");
    for (std::size_t i = 0; i < s.unexpected.size(); ++i)
      if (s.unexpected[i].slot != kEagerSlot)
        assert_rdv_live(s.unexpected[i].slot, "unexpected queue");
    // NIC budget bounds: in-flight injections stay inside [0, depth], and
    // budget state exists only under a finite-injection configuration.
    IW_ASSERT(s.nic_inflight >= 0, "negative in-flight injection count");
    if (nic_limited_) {
      IW_ASSERT(s.nic_inflight <= nic_depth_,
                "in-flight injections exceed the NIC budget");
    } else {
      IW_ASSERT(s.nic_inflight == 0 && s.nic_backlog.empty(),
                "NIC budget state on an unbounded-injection transport");
    }
    for (std::size_t i = 0; i < s.nic_backlog.size(); ++i) {
      const BacklogEntry& e = s.nic_backlog[i];
      if (e.kind == BacklogEntry::Kind::rts)
        assert_rdv_live(e.slot, "NIC retry backlog");
    }
    inflight_sum += s.nic_inflight;
    backlog_sum += static_cast<std::int64_t>(s.nic_backlog.size());
  }
  // Shadow-total reconciliation: the incrementally-maintained totals must
  // agree with a fresh walk of the structures — a mismatch means a
  // transaction site missed its increment or decrement.
  IW_ASSERT(inflight_sum == nic_inflight_total_,
            "in-flight injection total disagrees with its shadow counter");
  IW_ASSERT(backlog_sum == nic_backlog_total_,
            "NIC backlog total disagrees with its shadow counter");
  if (track_credits_) {
    std::int64_t credit_sum = 0;
    for (const int c : eager_credits_) {
      IW_ASSERT(c >= 0 && c <= credit_window_,
                "per-pair eager credit count outside [0, window]");
      credit_sum += c;
    }
    IW_ASSERT(credit_sum == credits_outstanding_,
              "outstanding eager credits disagree with their shadow counter");
  } else {
    IW_ASSERT(credits_outstanding_ == 0,
              "credit shadow counter moved with credits disabled");
  }
#endif
}

void Transport::transfer(net::LinkClass cls, int src, int dst,
                         std::int64_t bytes, sim::EventFn on_injected,
                         sim::EventFn on_arrival) {
  const bool same_node = cls == net::LinkClass::intra_socket ||
                         cls == net::LinkClass::inter_socket;
  memory::BandwidthDomain* src_domain = same_node ? domain_of(src) : nullptr;

  if (src_domain == nullptr) {
    // NIC path: serialize on the sender's NIC, arrive after the latency.
    // An empty on_injected (eager sends complete locally, before the
    // transfer) or on_arrival (one-sided puts complete the receiver via
    // the FIN instead) schedules nothing.
    const net::LinkParams& p = fabric_.params(cls);
    const SimTime arrival = inject(p, src, bytes);
    if (on_injected) engine_.at(arrival - p.latency, std::move(on_injected));
    if (on_arrival) engine_.at(arrival, std::move(on_arrival));
    return;
  }

  // Memory path: source-side buffer copy, then destination-side copy-out,
  // each drawing on the owning socket's memory bandwidth (they contend with
  // computation — the effect the Eq. 1 model ignores). The arrival
  // continuation is moved stage to stage, not shared. One-sided puts pass
  // an empty arrival: the copy-out still charges the destination socket's
  // bandwidth, it just has nothing to run afterwards.
  memory::BandwidthDomain* dst_domain = domain_of(dst);
  const Duration latency = fabric_.params(cls).latency;
  src_domain->submit(
      bytes, [this, bytes, dst_domain, latency,
              injected = std::move(on_injected),
              arrival = std::move(on_arrival)]() mutable {
        if (injected) injected();
        engine_.after(latency, [bytes, dst_domain,
                                arrival = std::move(arrival)]() mutable {
          if (dst_domain != nullptr) {
            dst_domain->submit(bytes, arrival ? std::move(arrival)
                                              : sim::EventFn([] {}));
          } else if (arrival) {
            arrival();
          }
        });
      });
}

const net::LinkParams& Transport::link(int a, int b) const {
  return fabric_.params(topo_.classify(a, b));
}

WireProtocol Transport::protocol_for(int src, int dst,
                                     std::int64_t bytes) const {
  if (bytes > fabric_.eager_limit_bytes) return WireProtocol::rendezvous;
  if (track_credits_) {
    // Public entry point: the flat table needs the bounds check the old
    // map lookup never did (post_send re-checks, but callers like
    // Cluster::message_time reach here directly).
    check_ranks(src, dst);
    if (eager_credits_[pair_index(src, dst)] >= credit_window_)
      return WireProtocol::rendezvous;
  }
  return WireProtocol::eager;
}

Duration Transport::eager_transfer_time(int src, int dst,
                                        std::int64_t bytes) const {
  const auto& p = link(src, dst);
  return p.overhead + p.gap + p.transfer_time(bytes) + p.overhead;
}

Duration Transport::rendezvous_transfer_time(int src, int dst,
                                             std::int64_t bytes) const {
  const auto& p = link(src, dst);
  // Handshake: RTS (gap + latency) + CTS/RTR-or-GET (gap + latency) — two
  // control messages in every flavor. The payload leg then differs:
  switch (flavor_) {
    case RendezvousFlavor::rdma_put:
      // One-sided put followed by the FIN control message that completes
      // the receiver: the FIN is injected behind the payload (gap) and its
      // arrival supersedes the payload's own wire latency. No receive-side
      // CPU overhead.
      return p.overhead + (p.gap + p.control_time()) * 2 + p.gap +
             p.payload_time(bytes) + p.gap + p.control_time();
    case RendezvousFlavor::rdma_get:
      // The source NIC streams the payload; the receiver completes at
      // arrival with no CPU overhead (the trailing FIN only retires the
      // sender's buffer and is off the critical path).
      return p.overhead + (p.gap + p.control_time()) * 2 + p.gap +
             p.transfer_time(bytes);
    case RendezvousFlavor::two_sided:
      break;
  }
  // Two-sided: data push plus endpoint overheads on the payload.
  return p.overhead + (p.gap + p.control_time()) * 2 + p.gap +
         p.transfer_time(bytes) + p.overhead;
}

SimTime Transport::inject(const net::LinkParams& p, int src,
                          std::int64_t payload_bytes) {
  RankState& s = state(src);
  const SimTime start = std::max(engine_.now(), s.nic_free);
  Duration busy = p.gap;
  if (payload_bytes > 0) {
    // The NIC is busy only for the injection itself, not the wire latency.
    busy += p.payload_time(payload_bytes);
  }
  s.nic_free = start + busy;
  return s.nic_free + p.latency;
}

SimTime Transport::inject_counted(const net::LinkParams& p, int src,
                                  std::int64_t payload_bytes) {
  const SimTime arrival = inject(p, src, payload_bytes);
  if (nic_limited_) {
    RankState& s = state(src);
    IW_ASSERT(s.nic_inflight < nic_depth_,
              "counted injection posted past the NIC budget");
    ++s.nic_inflight;
    IW_AUDIT(++nic_inflight_total_);
    // The budget slot frees when the NIC finishes serializing this message
    // (injection end = arrival - latency = the rank's new nic_free).
    engine_.at(s.nic_free, [this, src] { on_nic_drain(src); });
  }
  return arrival;
}

void Transport::backlog_push(int src, BacklogEntry entry) {
  RankState& s = state(src);
  ++stats_.nic_backlogged;
  IW_AUDIT(++nic_backlog_total_);
  if (entry.kind == BacklogEntry::Kind::eager) {
    trace(obs::TraceEvent::kNicPark, src, entry.envelope.dst,
          entry.envelope.bytes);
  } else {
    trace(obs::TraceEvent::kNicPark, src, rdv_slab_[entry.slot].envelope.dst,
          rdv_slab_[entry.slot].envelope.bytes, entry.slot);
  }
  s.nic_backlog.push_back(entry);
}

void Transport::on_nic_drain(int src) {
  RankState& s = state(src);
  IW_ASSERT(s.nic_inflight > 0, "NIC drain without an in-flight injection");
  --s.nic_inflight;
  IW_AUDIT(--nic_inflight_total_);
  trace(obs::TraceEvent::kNicDrain, src);

  // Dispatch backlogged sends in FIFO order while budget remains. Each
  // dispatch is itself a counted injection, so a depth-1 NIC re-posts
  // exactly one entry per drain.
  while (!s.nic_backlog.empty() && s.nic_inflight < nic_depth_) {
    const BacklogEntry entry = s.nic_backlog.front();
    s.nic_backlog.pop_front();
    IW_AUDIT(--nic_backlog_total_);
    if (entry.kind == BacklogEntry::Kind::eager) {
      const net::LinkClass cls =
          topo_.classify(entry.envelope.src, entry.envelope.dst);
      // The deferred local completion: the sender is charged its overhead
      // only now, when the message actually reaches the NIC — the coupling
      // that distinguishes a finite-injection NIC from the ideal one.
      send_eager(cls, entry.envelope.src, entry.envelope.dst,
                 entry.envelope.tag, entry.envelope.bytes);
      complete(src, entry.request,
               engine_.now() + fabric_.params(cls).overhead);
    } else {
      assert_rdv_live(entry.slot, "NIC backlog drain");
      const Envelope& env = rdv_slab_[entry.slot].envelope;
      send_rts(topo_.classify(env.src, env.dst), entry.slot);
    }
  }
}

void Transport::complete(int rank, RequestId request, SimTime due) {
  // The finish time is known now, so the process learns that the request
  // settles at `due`: no completion event at all.
  IW_ASSERT(procs_ != nullptr, "request settled with no process table set");
  procs_[rank]->on_request_settles_at(request, due);
}

void Transport::post_send(int src, int dst, int tag, std::int64_t bytes,
                          RequestId request) {
  IW_REQUIRE(src != dst, "self-sends are not modeled");
  check_ranks(src, dst);
  const net::LinkClass cls = topo_.classify(src, dst);
  trace(obs::TraceEvent::kPostSend, src, dst, bytes);

  // Protocol decision, with the credit demotion split out so it gets its
  // own counter (same rule as protocol_for, which must stay in step).
  const bool eager_sized = bytes <= fabric_.eager_limit_bytes;
  const bool no_credit = eager_sized && track_credits_ &&
                         eager_credits_[pair_index(src, dst)] >= credit_window_;

  if (eager_sized && !no_credit) {
    // Protocol accounting is charged at post time (the decision point), so
    // a NIC-backlogged send influences later protocol decisions exactly
    // like an injected one and the drain path never double-counts.
    ++stats_.eager_sends;
    if (track_credits_) {
      ++eager_credits_[pair_index(src, dst)];
      IW_AUDIT(++credits_outstanding_);
      trace(obs::TraceEvent::kCreditCharge, src, dst, bytes);
    }
    if (nic_limited_ && nic_path(cls, src) && nic_saturated(state(src))) {
      backlog_push(src, BacklogEntry{BacklogEntry::Kind::eager,
                                     Envelope{src, dst, tag, bytes}, request,
                                     0});
      return;  // completes at drain time
    }
    send_eager(cls, src, dst, tag, bytes);
    complete(src, request, engine_.now() + fabric_.params(cls).overhead);
    return;
  }

  if (no_credit) {
    ++stats_.credit_stalls;
    trace(obs::TraceEvent::kCreditDemotion, src, dst, bytes);
  }
  send_rendezvous(cls, src, dst, tag, bytes, request);
}

void Transport::post_ghost_send(int src, int dst, int tag,
                                std::int64_t bytes) {
  IW_REQUIRE(src != dst, "self-sends are not modeled");
  check_ranks(src, dst);
  IW_REQUIRE(!nic_limited_ && !track_credits_,
             "ghost sends require the ideal NIC and no credit window");
  IW_REQUIRE(bytes <= fabric_.eager_limit_bytes,
             "ghost sends must be eager-sized (the planner gates on this)");
  const net::LinkClass cls = topo_.classify(src, dst);
  trace(obs::TraceEvent::kPostSend, src, dst, bytes);
  ++stats_.eager_sends;
  // No local completion: the ghost's own timeline is analytic, only the
  // arrival side matters here.
  send_eager(cls, src, dst, tag, bytes);
}

void Transport::send_eager(net::LinkClass cls, int src, int dst, int tag,
                           std::int64_t bytes) {
  const net::LinkParams& p = fabric_.params(cls);
  const Envelope envelope{src, dst, tag, bytes};
  RankState& s = state(dst);
  trace(obs::TraceEvent::kEagerSend, src, dst, bytes);
  // The arrival closure carries the link overhead, so a matched arrival
  // never re-classifies the link.
  const auto arrive = [this, envelope, o = p.overhead] {
    on_eager_arrival(envelope, o);
  };
  if (!nic_path(cls, src)) {
    // Memory path: the bandwidth domains decide the arrival time later.
    ++s.arrivals_in_flight;
    transfer(cls, src, dst, bytes, nullptr, arrive);
    return;
  }

  // The NIC fixes the arrival time now, so a receive that is already
  // posted settles here, at arrival + overhead, with no arrival event.
  // That takes no credit window (a credit returns at the arrival) and no
  // earlier eager or RTS arrival to dst still on the wire: one from src
  // with the same tag must take this receive first (MPI non-overtaking). A
  // due time strictly after now keeps on_request_settles_at from resuming
  // the receiver inside this send.
  const SimTime arrival = inject_counted(p, src, bytes);
  if (!track_credits_ && s.arrivals_in_flight == 0 &&
      arrival + p.overhead > engine_.now()) {
    if (const std::size_t i = find_posted(s, envelope);
        i < s.posted_recvs.size()) {
      ++stats_.eager_at_post;
      if (tracer_ != nullptr) [[unlikely]]
        tracer_->record(arrival, obs::TraceEvent::kEagerRecv, dst, src, bytes);
      settle_posted(envelope, i, arrival, p.overhead);
      return;
    }
  }
  ++s.arrivals_in_flight;
  engine_.at(arrival, arrive);
}

std::size_t Transport::find_posted(const RankState& s,
                                   const Envelope& envelope) const {
  const auto& q = s.posted_recvs;
  std::size_t i = 0;
  while (i < q.size() && !envelope.matches(q[i].src, q[i].tag)) ++i;
  return i;
}

void Transport::settle_posted(const Envelope& envelope, std::size_t i,
                              SimTime arrival, Duration overhead) {
  auto& q = state(envelope.dst).posted_recvs;
  if (tracer_ != nullptr) [[unlikely]]
    tracer_->record(arrival, obs::TraceEvent::kMatch, envelope.dst,
                    envelope.src, envelope.bytes);
  complete(envelope.dst, q[i].request, arrival + overhead);
  if (track_credits_) return_credit(envelope.src, envelope.dst);
  q.erase(i);
}

void Transport::on_eager_arrival(const Envelope& envelope, Duration overhead) {
  RankState& s = state(envelope.dst);
  --s.arrivals_in_flight;
  trace(obs::TraceEvent::kEagerRecv, envelope.dst, envelope.src,
        envelope.bytes);
  if (const std::size_t i = find_posted(s, envelope);
      i < s.posted_recvs.size()) {
    settle_posted(envelope, i, engine_.now(), overhead);
    return;
  }
  ++stats_.unexpected_eager;
  trace(obs::TraceEvent::kUnexpectedEager, envelope.dst, envelope.src,
        envelope.bytes);
  s.unexpected.push_back(Unexpected{kEagerSlot, envelope});
}

void Transport::send_rendezvous(net::LinkClass cls, int src, int dst, int tag,
                                std::int64_t bytes, RequestId request) {
  ++stats_.rendezvous_sends;
  const std::uint32_t slot = acquire_rdv();
  rdv_slab_[slot] = RdvSend{Envelope{src, dst, tag, bytes}, request, -1};
  ++state(src).outstanding_handshakes;

  // The RTS is a sender-initiated injection, so it is subject to the
  // finite NIC budget (control messages always use the NIC path).
  if (nic_limited_ && nic_saturated(state(src))) {
    backlog_push(src, BacklogEntry{BacklogEntry::Kind::rts, Envelope{},
                                   -1, slot});
    return;
  }
  send_rts(cls, slot);
}

void Transport::send_rts(net::LinkClass cls, std::uint32_t slot) {
  assert_rdv_live(slot, "send_rts");
  const int src = rdv_slab_[slot].envelope.src;
  trace(obs::TraceEvent::kRtsSend, src, rdv_slab_[slot].envelope.dst,
        rdv_slab_[slot].envelope.bytes, slot);
  const SimTime rts_arrival = inject_counted(fabric_.params(cls), src, 0);
  ++state(rdv_slab_[slot].envelope.dst).arrivals_in_flight;
  engine_.at(rts_arrival, [this, slot] { on_rts_arrival(slot); });
}

void Transport::on_rts_arrival(std::uint32_t slot) {
  assert_rdv_live(slot, "on_rts_arrival");
  const Envelope envelope = rdv_slab_[slot].envelope;
  RankState& s = state(envelope.dst);
  --s.arrivals_in_flight;
  trace(obs::TraceEvent::kRtsRecv, envelope.dst, envelope.src, envelope.bytes,
        slot);
  auto& q = s.posted_recvs;
  if (const std::size_t i = find_posted(s, envelope); i < q.size()) {
    const RequestId recv_request = q[i].request;
    trace(obs::TraceEvent::kMatch, envelope.dst, envelope.src, envelope.bytes,
          slot);
    q.erase(i);
    if (flavor_ == RendezvousFlavor::rdma_get) {
      issue_get(slot, recv_request);
    } else {
      issue_cts(slot, recv_request);
    }
    return;
  }
  ++stats_.unexpected_rts;
  trace(obs::TraceEvent::kUnexpectedRts, envelope.dst, envelope.src,
        envelope.bytes, slot);
  s.unexpected.push_back(Unexpected{slot, envelope});
}

void Transport::issue_cts(std::uint32_t slot, RequestId recv_request) {
  assert_rdv_live(slot, "issue_cts");
  RdvSend& send = rdv_slab_[slot];
  send.recv_request = recv_request;
  trace(obs::TraceEvent::kCtsSend, send.envelope.dst, send.envelope.src,
        send.envelope.bytes, slot);
  // The CTS travels dst -> src; the link class is symmetric. Under
  // rdma_put this same control message is the RTR carrying the target
  // address and remote key. Protocol responses ride reserved slots and are
  // exempt from the injection budget.
  const SimTime cts_arrival =
      inject(link(send.envelope.dst, send.envelope.src), send.envelope.dst, 0);
  engine_.at(cts_arrival, [this, slot] { on_cts_arrival(slot); });
}

void Transport::on_cts_arrival(std::uint32_t slot) {
  assert_rdv_live(slot, "on_cts_arrival");
  RankState& s = state(rdv_slab_[slot].envelope.src);
  trace(obs::TraceEvent::kCtsRecv, rdv_slab_[slot].envelope.src,
        rdv_slab_[slot].envelope.dst, rdv_slab_[slot].envelope.bytes, slot);
  IW_ASSERT(s.outstanding_handshakes > 0,
            "CTS without an outstanding handshake");
  --s.outstanding_handshakes;

  if (flavor_ == RendezvousFlavor::rdma_put) {
    // One-sided write: the NIC executes the put as soon as the RTR lands —
    // it is never held behind the sender's other handshakes.
    put_data(slot);
    return;
  }

  const bool must_defer =
      config_.rendezvous.pipelining == RendezvousPipelining::deferred_push &&
      s.outstanding_handshakes > 0;
  if (must_defer) {
    ++stats_.deferred_pushes;
    push_counted(s.deferred, slot);
    return;
  }

  // This CTS may have cleared the last outstanding handshake: flush every
  // held push first (their CTS arrived earlier), then this one. The NIC
  // serializes the injections in that order. The flush stages through a
  // pooled scratch buffer, so draining allocates nothing once warm.
  if (s.outstanding_handshakes == 0 && !s.deferred.empty()) {
    deferred_scratch_.swap(s.deferred);  // s.deferred is now empty, pooled
    for (const std::uint32_t held : deferred_scratch_) push_data(held);
    deferred_scratch_.clear();
  }
  push_data(slot);
}

void Transport::push_data(std::uint32_t slot) {
  assert_rdv_live(slot, "push_data");
  const RdvSend send = rdv_slab_[slot];
  release_rdv(slot);
  IW_ASSERT(send.recv_request >= 0, "data push before the CTS matched");

  const int src = send.envelope.src;
  const int dst = send.envelope.dst;
  const std::int64_t bytes = send.envelope.bytes;
  const RequestId send_request = send.send_request;
  const RequestId recv_request = send.recv_request;
  const net::LinkClass cls = topo_.classify(src, dst);
  const net::LinkParams& p = fabric_.params(cls);
  trace(obs::TraceEvent::kPushSend, src, dst, bytes);

  if (nic_path(cls, src)) {
    // The NIC fixes both finish times now: the sender is done once the
    // payload is injected, the receiver once it has arrived plus the
    // per-message overhead. Both settle here, with no event. Due times
    // strictly after now keep on_request_settles_at from resuming a
    // process synchronously inside the deferred-push flush loop.
    const SimTime arrival = inject(p, src, bytes);
    const SimTime send_due = arrival - p.latency;
    const SimTime recv_due = arrival + p.overhead;
    IW_ASSERT(send_due > engine_.now() && recv_due > engine_.now(),
              "rendezvous push settles at or before its post time");
    if (tracer_ != nullptr) [[unlikely]]
      tracer_->record(arrival, obs::TraceEvent::kPushRecv, dst, src, bytes);
    complete(src, send_request, send_due);
    complete(dst, recv_request, recv_due);
    return;
  }

  // Memory path: the bandwidth domains decide the finish times later.
  transfer(cls, src, dst, bytes,
           [this, src, send_request] {
             complete(src, send_request, engine_.now());
           },
           [this, src, dst, bytes, recv_request, overhead = p.overhead] {
             trace(obs::TraceEvent::kPushRecv, dst, src, bytes);
             complete(dst, recv_request, engine_.now() + overhead);
           });
}

void Transport::put_data(std::uint32_t slot) {
  assert_rdv_live(slot, "put_data");
  const RdvSend send = rdv_slab_[slot];
  release_rdv(slot);
  IW_ASSERT(send.recv_request >= 0, "one-sided put before the RTR matched");
  ++stats_.rdma_puts;

  const int src = send.envelope.src;
  const int dst = send.envelope.dst;
  const RequestId send_request = send.send_request;
  const RequestId recv_request = send.recv_request;
  const net::LinkClass cls = topo_.classify(src, dst);
  trace(obs::TraceEvent::kPutSend, src, dst, send.envelope.bytes);
  // One-sided put: the payload lands straight in the receive buffer (no
  // arrival continuation, no receive-side overhead). The sender completes
  // at hand-off and chases the payload with a FIN control message — the
  // FIN's arrival is what completes the receiver.
  transfer(cls, src, dst, send.envelope.bytes,
           [this, src, dst, send_request, recv_request, cls] {
             complete(src, send_request, engine_.now());
             trace(obs::TraceEvent::kFinSend, src, dst);
             const SimTime fin_arrival =
                 inject(fabric_.params(cls), src, 0);
             engine_.at(fin_arrival, [this, src, dst, recv_request] {
               trace(obs::TraceEvent::kFinRecv, dst, src);
               complete(dst, recv_request, engine_.now());
             });
           },
           /*on_arrival=*/nullptr);
}

void Transport::issue_get(std::uint32_t slot, RequestId recv_request) {
  assert_rdv_live(slot, "issue_get");
  RdvSend& send = rdv_slab_[slot];
  send.recv_request = recv_request;
  trace(obs::TraceEvent::kGetSend, send.envelope.dst, send.envelope.src,
        send.envelope.bytes, slot);
  // The GET request travels dst -> src carrying the rkey the RTS
  // advertised; like the CTS it is a budget-exempt protocol response.
  const SimTime get_arrival =
      inject(link(send.envelope.dst, send.envelope.src), send.envelope.dst, 0);
  engine_.at(get_arrival, [this, slot] { on_get_arrival(slot); });
}

void Transport::on_get_arrival(std::uint32_t slot) {
  assert_rdv_live(slot, "on_get_arrival");
  const RdvSend send = rdv_slab_[slot];
  release_rdv(slot);
  IW_ASSERT(send.recv_request >= 0, "one-sided get before the RTS matched");
  ++stats_.rdma_gets;

  RankState& s = state(send.envelope.src);
  IW_ASSERT(s.outstanding_handshakes > 0,
            "GET request without an outstanding handshake");
  --s.outstanding_handshakes;

  const int src = send.envelope.src;
  const int dst = send.envelope.dst;
  const std::int64_t bytes = send.envelope.bytes;
  const RequestId send_request = send.send_request;
  const RequestId recv_request = send.recv_request;
  const net::LinkClass cls = topo_.classify(src, dst);
  // The source NIC streams the payload back without CPU involvement: the
  // receiver completes at arrival (no overhead) and returns a FIN that
  // retires the sender's buffer.
  transfer(cls, src, dst, bytes,
           /*on_injected=*/nullptr,
           [this, src, dst, bytes, send_request, recv_request, cls] {
             trace(obs::TraceEvent::kGetRecv, dst, src, bytes);
             complete(dst, recv_request, engine_.now());
             trace(obs::TraceEvent::kFinSend, dst, src);
             const SimTime fin_arrival =
                 inject(fabric_.params(cls), dst, 0);
             engine_.at(fin_arrival, [this, src, dst, send_request] {
               trace(obs::TraceEvent::kFinRecv, src, dst);
               complete(src, send_request, engine_.now());
             });
           });
}

void Transport::post_recv(int dst, int src, int tag, std::int64_t bytes,
                          RequestId request) {
  IW_REQUIRE(src != dst, "self-receives are not modeled");
  check_ranks(src, dst);
  RankState& s = state(dst);
  trace(obs::TraceEvent::kPostRecv, dst, src, bytes);

  // 1) The earliest unexpected arrival from (src, tag): an eager payload or
  //    a waiting rendezvous handshake. One arrival-ordered queue keeps a
  //    later eager message from overtaking an earlier RTS.
  auto& uq = s.unexpected;
  for (std::size_t i = 0; i < uq.size(); ++i) {
    if (!uq[i].envelope.matches(src, tag)) continue;
    const Unexpected u = uq[i];
    uq.erase(i);
    if (u.slot == kEagerSlot) {
      trace(obs::TraceEvent::kMatch, dst, src, u.envelope.bytes);
      complete(dst, request, engine_.now() + link(src, dst).overhead);
      if (track_credits_) return_credit(src, dst);
    } else {
      trace(obs::TraceEvent::kMatch, dst, src, u.envelope.bytes, u.slot);
      if (flavor_ == RendezvousFlavor::rdma_get) {
        issue_get(u.slot, request);
      } else {
        issue_cts(u.slot, request);
      }
    }
    return;
  }

  // 2) Nothing yet: queue the receive.
  s.posted_recvs.push_back(PostedRecv{src, tag, request});
}

}  // namespace iw::mpi
