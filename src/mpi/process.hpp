// A simulated MPI process: interprets a rank Program against the engine,
// the transport, an optional bandwidth domain, and attached noise sources,
// recording a trace of everything it does. The interpreter position is an
// (iteration, pc) pair: pc wraps to the body's start while iterations
// remain.
//
// Processes are pooled by the Cluster: reset() re-arms one for another run
// (new trace binding, new program) while the request storage binding stays,
// so steady-state interpretation allocates nothing per message.
#pragma once

#include <cstdint>
#include <vector>

#include "memory/bandwidth_domain.hpp"
#include "mpi/program.hpp"
#include "mpi/request.hpp"
#include "mpi/trace.hpp"
#include "mpi/transport.hpp"
#include "noise/system_profiles.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace iw::mpi {

class Process {
 public:
  Process(int rank, sim::Engine& engine, Transport& transport, Trace& trace);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Non-owning: programs are immutable and must outlive the run (the
  /// Cluster keeps the caller's program vector alive for its duration).
  void set_program(const Program* program);

  /// Attaches a noise source; each compute phase adds one sample from every
  /// attached source. The process keeps the spec and generator by value;
  /// an invalid spec throws std::invalid_argument here, before the run.
  void add_noise(const noise::NoiseSpec& spec, Rng rng);

  /// Bandwidth domain used by OpMemWork phases (socket memory interface).
  /// May stay null if the program has no memory-bound phases.
  void set_domain(memory::BandwidthDomain* domain) { domain_ = domain; }

  /// Arms (or with nullptr disarms) the protocol flight recorder: the
  /// process records wait_begin/wait_end around every blocking WaitAll.
  /// Cleared by reset(); harnesses re-arm per run.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Re-arms the process for another run as `rank` (the pooled
  /// fast-forward path reuses one contiguous block of processes for
  /// whatever sparse active set the plan selects): rebinds the trace,
  /// clears the program, noise sources, domain, and interpreter state.
  /// Request storage keeps its capacity.
  void reset(int rank, Trace& trace);

  /// Binds the request window to `capacity` slots of an external slab (the
  /// Cluster carves one slab for all ranks, `capacity` from the program's
  /// max_window_requests()). Required before a program that posts runs: a
  /// post past the bound capacity fails an always-on check. Must be called
  /// only while no requests are open.
  void set_request_storage(Request* base, std::uint32_t capacity);

  /// Called once after wiring; schedules the first instruction at t=0.
  void start();

  /// Transport's one completion path, called once per request when its
  /// finish time is known (an eager send from inside its post; a matched
  /// receive `overhead` after its arrival; an eager message whose receive
  /// is already posted, and a two-sided rendezvous push, when they are
  /// sent): marks the request as settling at `due` instead of costing a
  /// completion event. Once a blocked WaitAll's requests are all timed, the
  /// wait ends at the latest due point: at most one wake per wait window,
  /// and none when the window is followed by marks and a core-bound compute
  /// (see schedule_timed_wake()).
  void on_request_settles_at(RequestId id, SimTime due);

  /// Plain-pointer completion hook (rank-done notification): no type-erased
  /// state, so wiring it costs nothing on the hot path.
  struct DoneFn {
    void (*fn)(void* ctx, int rank) = nullptr;
    void* ctx = nullptr;
  };

  /// Invoked when the program has fully executed.
  void set_done_handler(DoneFn fn) { on_done_ = fn; }

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool blocked() const { return blocked_; }

 private:
  /// Interprets (iteration, pc) at the rank-local time `now` until blocked
  /// or timed. `now` runs ahead of the engine clock only in a fused wait
  /// end, which reaches marks and one compute and nothing else: every post,
  /// injection, memory phase and WaitAll asserts `now == engine_.now()`.
  void resume(SimTime now);
  [[nodiscard]] Duration sample_noise();
  /// True when every request has settled and its due point has passed.
  [[nodiscard]] bool requests_settled(SimTime now) const;
  /// True when the ops after the WaitAll at pc_, wrapping into the next
  /// iteration, are marks followed by an OpCompute. False after the
  /// program's last WaitAll, whose end is the rank's finish time.
  [[nodiscard]] bool compute_follows_wait() const;
  /// Once every request of the blocked window has a known (timed)
  /// completion point, ends the wait at the latest of them. When a compute
  /// follows (compute_follows_wait()), it ends the wait right away, ahead
  /// of the clock: the wait segment, the wait-end record and the step mark
  /// take that time, and the compute end is scheduled from it. Otherwise
  /// it schedules one wake event there.
  void schedule_timed_wake();
  /// Records the wait segment ending at `now`, resumes at `now`.
  void finish_wait(SimTime now);
  /// Records the timed phase begun at `begin` as a segment, resumes.
  void end_phase(SegKind kind, SimTime begin, Duration noise);

  int rank_;
  sim::Engine& engine_;
  Transport& transport_;
  Trace* trace_;
  const Program* program_ = nullptr;
  memory::BandwidthDomain* domain_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  struct NoiseSource {
    noise::NoiseSpec spec;
    Rng rng;
  };
  std::vector<NoiseSource> noise_;

  /// Appends an unsettled request to the window and returns its id. An
  /// overflowing window is a contract error: the storage is sized from
  /// Program::max_window_requests().
  RequestId push_request();

  /// Interpreter position: op `pc_` of the body in iteration `iteration_`,
  /// and the next unused entry of the program's injection list.
  std::size_t pc_ = 0;
  std::int32_t iteration_ = 0;
  std::size_t next_injection_ = 0;
  std::int32_t next_step_ = 0;
  /// Request window: a pointer into the shared request slab (SoA storage,
  /// one carve per rank).
  Request* req_ = nullptr;
  std::uint32_t req_count_ = 0;
  std::uint32_t req_cap_ = 0;
  /// O(1) WaitAll accounting: requests whose settle time the transport has
  /// not reported yet, plus the latest timed due point of the window.
  int open_requests_ = 0;
  SimTime latest_due_ = SimTime::zero();
  bool blocked_ = false;
  SimTime wait_begin_;
  bool done_ = false;
  DoneFn on_done_;
};

}  // namespace iw::mpi
