// A simulated MPI process: interprets a rank Program against the engine,
// the transport, an optional bandwidth domain, and attached noise sources,
// recording a trace of everything it does. The interpreter position is an
// (iteration, pc) pair: pc wraps to the body's start while iterations
// remain.
//
// A request is a count: the transport hands back its window index and
// settles it once, with its finish time. The process keeps only the number
// still open and the latest finish time of the window, which is all a
// WaitAll needs, so interpretation stores nothing per message.
//
// Processes are pooled by the Cluster: reset() re-arms one for another run
// (new trace binding, new program).
#pragma once

#include <cstdint>
#include <vector>

#include "memory/bandwidth_domain.hpp"
#include "mpi/program.hpp"
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
  /// whatever sparse active set the plan selects): rebinds the trace and
  /// resolves the rank's row in it (creating an empty one if the rank has
  /// none), clears the program, noise sources, domain, and interpreter
  /// state.
  void reset(int rank, Trace& trace);

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

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] int rank() const { return rank_; }

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
  Trace::RowId row_;  ///< this rank's trace row, resolved once at bind
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

  /// Opens a request in the window and returns its id, the window index.
  RequestId open_request();

  /// Interpreter position: op `pc_` of the body in iteration `iteration_`,
  /// and the next unused entry of the program's injection list.
  std::size_t pc_ = 0;
  std::int32_t iteration_ = 0;
  std::size_t next_injection_ = 0;
  std::int32_t next_step_ = 0;
  /// O(1) WaitAll accounting: requests posted in the window, those whose
  /// settle time the transport has not reported yet, and the latest timed
  /// due point of the window.
  std::uint32_t req_count_ = 0;
  int open_requests_ = 0;
  SimTime latest_due_ = SimTime::zero();
  bool blocked_ = false;
  SimTime wait_begin_;
  bool done_ = false;
#if IW_AUDIT_ENABLED
  /// Audit-only shadow of the window: 1 = request already settled. Catches
  /// a request the transport settles twice.
  std::vector<std::uint8_t> settled_;
#endif
};

}  // namespace iw::mpi
