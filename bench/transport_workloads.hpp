// A/B machinery of the transport perf bench (perf_trace): the preserved
// naive reference stack, the three message-path workloads, and the
// measurement helpers.
//
// The naive replica is the pre-flattening transport and process, verbatim
// (std::function callbacks, unordered_map rendezvous/backlog state,
// std::deque matching queues, shared_ptr programs, one fresh world per
// run). It predates both the protocol-realism features and the flight
// recorder, which is exactly what makes it a stable normalizer: dividing
// the production stack's throughput by the replica's cancels the machine,
// so speedup ratios can be compared against checked-in baselines.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "mpi/program.hpp"
#include "mpi/trace.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "workload/ring.hpp"

namespace iw::bench_transport {

// ---------------------------------------------------------------------------
// Naive reference stack.

namespace naive {

inline std::int64_t pair_key(int src, int dst) {
  return (static_cast<std::int64_t>(src) << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(dst));
}

/// The pre-redesign flat options struct, preserved with the replica (the
/// production transport now takes the grouped mpi::TransportConfig).
struct Options {
  std::int64_t forced_eager_limit = -1;
  std::int64_t eager_buffer_bytes =
      std::numeric_limits<std::int64_t>::max();
  mpi::RendezvousPipelining pipelining =
      mpi::RendezvousPipelining::deferred_push;
};

/// Projection of the production config onto the replica's option set; the
/// replica predates the NIC/credit features (and the production transport
/// has no eager byte budget), so A/B workloads keep those at their ideal
/// defaults.
inline Options options_from(const mpi::TransportConfig& config) {
  Options opt;
  opt.pipelining = config.rendezvous.pipelining;
  return opt;
}

class Transport {
 public:
  using CompletionFn = std::function<void(int rank, mpi::RequestId request)>;

  Transport(sim::Engine& engine, const net::Topology& topo,
            const net::FabricProfile& fabric, Options options)
      : engine_(engine),
        fabric_(fabric),
        options_(options),
        eager_limit_(options.forced_eager_limit >= 0
                         ? options.forced_eager_limit
                         : fabric.eager_limit_bytes),
        nranks_(topo.ranks()),
        per_socket_(topo.ranks_per_socket()),
        sockets_per_node_(topo.ranks_per_node() / topo.ranks_per_socket()),
        ranks_(static_cast<std::size_t>(topo.ranks())) {}

  void set_completion_handler(CompletionFn fn) { on_complete_ = std::move(fn); }

  [[nodiscard]] std::uint64_t messages() const { return messages_; }

  void post_send(int src, int dst, int tag, std::int64_t bytes,
                 mpi::RequestId request) {
    if (protocol_for(src, dst, bytes) == mpi::WireProtocol::eager) {
      send_eager(src, dst, tag, bytes, request);
    } else {
      send_rendezvous(src, dst, tag, bytes, request);
    }
  }

  void post_recv(int dst, int src, int tag, std::int64_t bytes,
                 mpi::RequestId request) {
    RankState& s = ranks_[static_cast<std::size_t>(dst)];
    {
      auto it = std::find_if(
          s.unexpected_eager.begin(), s.unexpected_eager.end(),
          [&](const mpi::Envelope& e) { return e.matches(src, tag); });
      if (it != s.unexpected_eager.end()) {
        complete(dst, request, link(src, dst).overhead);
        eager_in_flight_[pair_key(src, dst)] -= it->bytes;
        s.unexpected_eager.erase(it);
        return;
      }
    }
    {
      auto it = std::find_if(
          s.unexpected_rts.begin(), s.unexpected_rts.end(),
          [&](const RtsRecord& r) { return r.envelope.matches(src, tag); });
      if (it != s.unexpected_rts.end()) {
        const std::uint64_t uid = it->send_uid;
        s.unexpected_rts.erase(it);
        issue_cts(uid, request);
        return;
      }
    }
    s.posted_recvs.push_back(PostedRecv{src, tag, bytes, request});
  }

 private:
  struct PostedRecv {
    int src;
    int tag;
    std::int64_t bytes;
    mpi::RequestId request;
  };
  struct RtsRecord {
    std::uint64_t send_uid;
    mpi::Envelope envelope;
  };
  struct RdvSend {
    mpi::Envelope envelope;
    mpi::RequestId send_request = -1;
    mpi::RequestId recv_request = -1;
  };
  struct RankState {
    std::deque<PostedRecv> posted_recvs;
    std::deque<mpi::Envelope> unexpected_eager;
    std::deque<RtsRecord> unexpected_rts;
    SimTime nic_free = SimTime::zero();
    int outstanding_handshakes = 0;
    std::vector<std::uint64_t> deferred;
  };

  /// The pre-flattening link classification: integer divisions on every
  /// call (the production Topology now precomputes rank->socket/node
  /// tables; preserving the old arithmetic keeps the baseline honest).
  [[nodiscard]] net::LinkClass classify(int a, int b) const {
    if (a == b) return net::LinkClass::self;
    const int sa = a / per_socket_;
    const int sb = b / per_socket_;
    if (sa == sb) return net::LinkClass::intra_socket;
    if (sa / sockets_per_node_ == sb / sockets_per_node_)
      return net::LinkClass::inter_socket;
    return net::LinkClass::inter_node;
  }

  [[nodiscard]] const net::LinkParams& link(int a, int b) const {
    return fabric_.params(classify(a, b));
  }

  [[nodiscard]] std::int64_t eager_in_flight(int src, int dst) const {
    const auto it = eager_in_flight_.find(pair_key(src, dst));
    return it == eager_in_flight_.end() ? 0 : it->second;
  }

  [[nodiscard]] mpi::WireProtocol protocol_for(int src, int dst,
                                               std::int64_t bytes) const {
    if (bytes > eager_limit_) return mpi::WireProtocol::rendezvous;
    if (eager_in_flight(src, dst) + bytes > options_.eager_buffer_bytes)
      return mpi::WireProtocol::rendezvous;
    return mpi::WireProtocol::eager;
  }

  SimTime inject(int src, int dst, std::int64_t payload_bytes) {
    const auto& p = link(src, dst);
    RankState& s = ranks_[static_cast<std::size_t>(src)];
    const SimTime start = std::max(engine_.now(), s.nic_free);
    Duration busy = p.gap;
    if (payload_bytes > 0) busy += p.payload_time(payload_bytes);
    s.nic_free = start + busy;
    return s.nic_free + p.latency;
  }

  void transfer(int src, int dst, std::int64_t bytes, sim::EventFn on_injected,
                sim::EventFn on_arrival) {
    const SimTime arrival = inject(src, dst, bytes);
    const SimTime injected = arrival - link(src, dst).latency;
    engine_.at(injected, std::move(on_injected));
    engine_.at(arrival, std::move(on_arrival));
  }

  void complete(int rank, mpi::RequestId request, Duration delay) {
    engine_.after(delay,
                  [this, rank, request] { on_complete_(rank, request); });
  }

  void send_eager(int src, int dst, int tag, std::int64_t bytes,
                  mpi::RequestId request) {
    ++messages_;
    eager_in_flight_[pair_key(src, dst)] += bytes;
    complete(src, request, link(src, dst).overhead);
    const mpi::Envelope envelope{src, dst, tag, bytes};
    transfer(src, dst, bytes, [] {},
             [this, envelope] { on_eager_arrival(envelope); });
  }

  void on_eager_arrival(const mpi::Envelope& envelope) {
    RankState& s = ranks_[static_cast<std::size_t>(envelope.dst)];
    auto it = std::find_if(s.posted_recvs.begin(), s.posted_recvs.end(),
                           [&](const PostedRecv& r) {
                             return envelope.matches(r.src, r.tag);
                           });
    if (it == s.posted_recvs.end()) {
      s.unexpected_eager.push_back(envelope);
      return;
    }
    complete(envelope.dst, it->request,
             link(envelope.src, envelope.dst).overhead);
    eager_in_flight_[pair_key(envelope.src, envelope.dst)] -= envelope.bytes;
    s.posted_recvs.erase(it);
  }

  void send_rendezvous(int src, int dst, int tag, std::int64_t bytes,
                       mpi::RequestId request) {
    ++messages_;
    const std::uint64_t uid = next_uid_++;
    rdv_sends_.emplace(uid,
                       RdvSend{mpi::Envelope{src, dst, tag, bytes}, request,
                               -1});
    ++ranks_[static_cast<std::size_t>(src)].outstanding_handshakes;
    const SimTime rts_arrival = inject(src, dst, 0);
    engine_.at(rts_arrival, [this, uid] { on_rts_arrival(uid); });
  }

  void on_rts_arrival(std::uint64_t send_uid) {
    const RdvSend& send = rdv_sends_.at(send_uid);
    RankState& s = ranks_[static_cast<std::size_t>(send.envelope.dst)];
    auto it = std::find_if(s.posted_recvs.begin(), s.posted_recvs.end(),
                           [&](const PostedRecv& r) {
                             return send.envelope.matches(r.src, r.tag);
                           });
    if (it == s.posted_recvs.end()) {
      s.unexpected_rts.push_back(RtsRecord{send_uid, send.envelope});
      return;
    }
    const mpi::RequestId recv_request = it->request;
    s.posted_recvs.erase(it);
    issue_cts(send_uid, recv_request);
  }

  void issue_cts(std::uint64_t send_uid, mpi::RequestId recv_request) {
    RdvSend& send = rdv_sends_.at(send_uid);
    send.recv_request = recv_request;
    const SimTime cts_arrival =
        inject(send.envelope.dst, send.envelope.src, 0);
    engine_.at(cts_arrival, [this, send_uid] { on_cts_arrival(send_uid); });
  }

  void on_cts_arrival(std::uint64_t send_uid) {
    const RdvSend& send = rdv_sends_.at(send_uid);
    RankState& s = ranks_[static_cast<std::size_t>(send.envelope.src)];
    --s.outstanding_handshakes;
    const bool must_defer =
        options_.pipelining == mpi::RendezvousPipelining::deferred_push &&
        s.outstanding_handshakes > 0;
    if (must_defer) {
      s.deferred.push_back(send_uid);
      return;
    }
    if (s.outstanding_handshakes == 0 && !s.deferred.empty()) {
      std::vector<std::uint64_t> flush;
      flush.swap(s.deferred);
      for (const std::uint64_t uid : flush) push_data(uid);
    }
    push_data(send_uid);
  }

  void push_data(std::uint64_t send_uid) {
    const auto node = rdv_sends_.extract(send_uid);
    const RdvSend send = node.mapped();
    const int src = send.envelope.src;
    const int dst = send.envelope.dst;
    const mpi::RequestId send_request = send.send_request;
    const mpi::RequestId recv_request = send.recv_request;
    transfer(src, dst, send.envelope.bytes,
             [this, src, send_request] {
               complete(src, send_request, Duration::zero());
             },
             [this, dst, recv_request, src] {
               complete(dst, recv_request, link(src, dst).overhead);
             });
  }

  sim::Engine& engine_;
  net::FabricProfile fabric_;
  Options options_;
  std::int64_t eager_limit_;
  int nranks_;
  int per_socket_;
  int sockets_per_node_;
  CompletionFn on_complete_;
  std::vector<RankState> ranks_;
  std::unordered_map<std::uint64_t, RdvSend> rdv_sends_;
  std::unordered_map<std::int64_t, std::int64_t> eager_in_flight_;
  std::uint64_t next_uid_ = 0;
  std::uint64_t messages_ = 0;
};

/// The pre-flattening request record: every completion is event-delivered.
struct Request {
  enum class Kind : std::uint8_t { send, recv };
  Kind kind = Kind::send;
  int peer = -1;
  int tag = 0;
  std::int64_t bytes = 0;
  bool complete = false;
};

/// The pre-flattening process interpreter: refcounted program handle and a
/// type-erased completion seam, minus the noise/memory machinery the bench
/// workloads never touch. It loops over a program's body as mpi::Process
/// does: `repeats()` times, with the iteration added to every tag.
class Process {
 public:
  Process(int rank, sim::Engine& engine, Transport& transport,
          mpi::Trace& trace)
      : rank_(rank), engine_(engine), transport_(transport), trace_(trace) {}

  void set_program(std::shared_ptr<const mpi::Program> program) {
    program_ = std::move(program);
  }

  void start() {
    engine_.at(engine_.now(), [this] { resume(); });
  }

  [[nodiscard]] bool done() const { return done_; }

  void on_request_complete(mpi::RequestId id) {
    Request& req = requests_[static_cast<std::size_t>(id)];
    req.complete = true;
    if (!blocked_) return;
    const bool all_done =
        std::all_of(requests_.begin(), requests_.end(),
                    [](const Request& r) { return r.complete; });
    if (!all_done) return;
    blocked_ = false;
    const SimTime now = engine_.now();
    if (now > wait_begin_) {
      trace_.add_segment(rank_,
                         mpi::Segment{mpi::SegKind::wait, wait_begin_, now,
                                      next_step_ - 1, Duration::zero()});
    }
    requests_.clear();
    ++pc_;
    resume();
  }

 private:
  void resume() {
    const auto& body = program_->body();
    for (;;) {
      if (pc_ == body.size()) {
        if (iteration_ + 1 >= program_->repeats()) break;
        ++iteration_;
        pc_ = 0;
        continue;
      }
      const mpi::Op& op = body[pc_];
      if (const auto* comp = std::get_if<mpi::OpCompute>(&op)) {
        const SimTime begin = engine_.now();
        const std::int32_t step = next_step_ - 1;
        engine_.after(comp->duration, [this, begin, step] {
          trace_.add_segment(rank_,
                             mpi::Segment{mpi::SegKind::compute, begin,
                                          engine_.now(), step,
                                          Duration::zero()});
          ++pc_;
          resume();
        });
        return;
      }
      if (const auto* send = std::get_if<mpi::OpIsend>(&op)) {
        const auto id = static_cast<mpi::RequestId>(requests_.size());
        const int tag = send->tag + iteration_;
        requests_.push_back(Request{Request::Kind::send, send->peer,
                                    tag, send->bytes, false});
        transport_.post_send(rank_, send->peer, tag, send->bytes, id);
        ++pc_;
        continue;
      }
      if (const auto* recv = std::get_if<mpi::OpIrecv>(&op)) {
        const auto id = static_cast<mpi::RequestId>(requests_.size());
        const int tag = recv->tag + iteration_;
        requests_.push_back(Request{Request::Kind::recv, recv->peer,
                                    tag, recv->bytes, false});
        transport_.post_recv(rank_, recv->peer, tag, recv->bytes, id);
        ++pc_;
        continue;
      }
      if (std::holds_alternative<mpi::OpWaitAll>(op)) {
        const bool all_done =
            std::all_of(requests_.begin(), requests_.end(),
                        [](const Request& r) { return r.complete; });
        if (all_done) {
          requests_.clear();
          ++pc_;
          continue;
        }
        blocked_ = true;
        wait_begin_ = engine_.now();
        return;
      }
      if (std::holds_alternative<mpi::OpMark>(op)) {
        trace_.mark_step(rank_, next_step_, engine_.now());
        ++next_step_;
        ++pc_;
        continue;
      }
      throw std::logic_error("naive bench replica: unsupported op kind");
    }
    if (!done_) {
      done_ = true;
      trace_.set_finish(rank_, engine_.now());
    }
  }

  int rank_;
  sim::Engine& engine_;
  Transport& transport_;
  mpi::Trace& trace_;
  std::shared_ptr<const mpi::Program> program_;
  std::size_t pc_ = 0;
  std::int32_t iteration_ = 0;
  std::int32_t next_step_ = 0;
  std::vector<Request> requests_;
  bool blocked_ = false;
  SimTime wait_begin_;
  bool done_ = false;
};

/// One fresh world per run, like every pre-reuse call site did.
inline std::uint64_t run(const net::TopologySpec& topo_spec,
                         const net::FabricProfile& fabric,
                         const Options& options,
                         const std::vector<mpi::Program>& programs) {
  sim::Engine engine;
  net::Topology topo(topo_spec);
  Transport transport(engine, topo, fabric, options);
  mpi::Trace trace(topo.ranks());
  std::vector<std::unique_ptr<Process>> processes;
  processes.reserve(programs.size());
  for (int rank = 0; rank < topo.ranks(); ++rank) {
    auto proc = std::make_unique<Process>(rank, engine, transport, trace);
    proc->set_program(std::make_shared<const mpi::Program>(
        programs[static_cast<std::size_t>(rank)]));
    processes.push_back(std::move(proc));
  }
  transport.set_completion_handler(
      [&processes](int rank, mpi::RequestId request) {
        processes[static_cast<std::size_t>(rank)]->on_request_complete(
            request);
      });
  for (auto& proc : processes) proc->start();
  engine.run();
  for (const auto& proc : processes)
    if (!proc->done())
      throw std::logic_error("naive bench replica deadlocked");
  return transport.messages();
}

}  // namespace naive

// ---------------------------------------------------------------------------
// Workloads. Both sides interpret the same per-rank programs.

struct Workload {
  std::string name;
  net::TopologySpec topo;
  mpi::TransportConfig config;
  std::vector<mpi::Program> programs;
};

inline Workload make_eager_storm(int ranks, int steps) {
  workload::RingSpec ring;
  ring.ranks = ranks;
  ring.steps = steps;
  ring.distance = 8;      // d = 8 neighbor exchange (cf. the Fig. 7 distance scan):
                          // a burst of messages per step
  ring.msg_bytes = 1024;  // far below the eager limit
  ring.texec = microseconds(1.0);
  ring.direction = workload::Direction::unidirectional;
  ring.boundary = workload::Boundary::periodic;
  ring.noisy = false;
  return Workload{"eager_storm", net::TopologySpec::one_rank_per_node(ranks),
                  {}, workload::build_ring(ring)};
}

inline Workload make_rendezvous_pipeline(int ranks, int steps) {
  workload::RingSpec ring;
  ring.ranks = ranks;
  ring.steps = steps;
  ring.msg_bytes = 262144;  // above the 128 KiB limit -> RTS/CTS handshakes
  ring.texec = microseconds(1.0);
  ring.direction = workload::Direction::bidirectional;
  ring.boundary = workload::Boundary::periodic;
  ring.noisy = false;
  return Workload{"rendezvous_pipeline",
                  net::TopologySpec::one_rank_per_node(ranks), {},
                  workload::build_ring(ring)};
}

/// Paired ranks; the receiver computes before posting its receives, so the
/// sender's eager burst always lands unexpected and every post_recv scans
/// the unexpected queue.
inline Workload make_unexpected_storm(int pairs, int steps, int burst) {
  std::vector<mpi::Program> programs(static_cast<std::size_t>(2 * pairs));
  for (int p = 0; p < pairs; ++p) {
    mpi::Program& snd = programs[static_cast<std::size_t>(2 * p)];
    mpi::Program& rcv = programs[static_cast<std::size_t>(2 * p + 1)];
    for (int s = 0; s < steps; ++s) {
      snd.mark();
      for (int b = 0; b < burst; ++b) snd.isend(2 * p + 1, 2048, b);
      snd.waitall();
      rcv.mark();
      rcv.compute(microseconds(50.0), false);
      for (int b = 0; b < burst; ++b) rcv.irecv(2 * p, 2048, b);
      rcv.waitall();
    }
  }
  return Workload{"unexpected_storm",
                  net::TopologySpec::one_rank_per_node(2 * pairs), {},
                  std::move(programs)};
}

// ---------------------------------------------------------------------------
// Measurement.

struct Measurement {
  std::uint64_t messages = 0;
  double seconds = std::numeric_limits<double>::infinity();
};

inline double msgs_per_sec(const Measurement& m) {
  return m.seconds > 0 ? static_cast<double>(m.messages) / m.seconds : 0.0;
}

/// The production stack, run the way sweeps run it: one Cluster recycled
/// across runs via reset(). An optional tracer arms the flight recorder on
/// every run (perf_trace measures the armed-vs-disarmed contrast).
class FastLab {
 public:
  explicit FastLab(obs::Tracer* tracer = nullptr) : tracer_(tracer) {}

  std::uint64_t run(const Workload& wl) {
    core::ClusterConfig config;
    config.topo = wl.topo;
    config.transport = wl.config;
    config.tracer = tracer_;
    if (cluster_ == nullptr) {
      cluster_ = std::make_unique<core::Cluster>(config);
    } else {
      cluster_->reset(config);
    }
    (void)cluster_->run(wl.programs);
    const auto& stats = cluster_->transport_stats();
    return stats.eager_sends + stats.rendezvous_sends;
  }

  [[nodiscard]] mpi::Transport::PoolStats pool_stats() const {
    return cluster_->transport_pool_stats();
  }

 private:
  std::unique_ptr<core::Cluster> cluster_;
  obs::Tracer* tracer_;
};

template <typename RunFn>
Measurement measure(RunFn run_once) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t messages = run_once();
  const auto stop = std::chrono::steady_clock::now();
  return Measurement{messages,
                     std::chrono::duration<double>(stop - start).count()};
}

}  // namespace iw::bench_transport
