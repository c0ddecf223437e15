// Rank programs: the instruction streams interpreted by simulated processes.
//
// A Program is a loop in the spirit of LogGOPSim's GOAL schedules,
// specialized to the bulk-synchronous structure the paper studies: a body
// of compute (core-bound or memory-bound), nonblocking posts and a closing
// WaitAll, plus delay injection and timestep markers for tracing, run
// repeats() times. Iteration i adds i to every send/recv tag. A flat
// program is a body repeated once. The body may hold one injection point,
// and a sorted injection list names the iterations that delay there. The
// builders keep the two counters the Cluster sizes the trace from
// (segment_bound(), step_marks()), so reading them never walks the ops.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "support/time.hpp"

namespace iw::mpi {

/// Core-bound compute phase of fixed nominal duration. If `noisy`, attached
/// noise models add a random extra delay per phase.
struct OpCompute {
  Duration duration;
  bool noisy = true;
};

/// Memory-bound compute phase: moves `bytes` through the rank's bandwidth
/// domain (processor sharing with socket neighbors). Also receives noise.
struct OpMemWork {
  std::int64_t bytes = 0;
  bool noisy = true;
};

/// Deliberately injected delay — the disturbance whose propagation the
/// paper studies. Traced separately from regular compute. A fixed op delays
/// every iteration by `duration`; the injection point (`point`) delays only
/// the iterations Program::inject_at() lists, by the listed duration.
struct OpInject {
  Duration duration;
  bool point = false;
};

/// Nonblocking send / receive posts. The tag is the iteration-0 tag.
struct OpIsend {
  int peer = -1;
  std::int64_t bytes = 0;
  int tag = 0;
};
struct OpIrecv {
  int peer = -1;
  std::int64_t bytes = 0;
  int tag = 0;
};

/// Waits for all requests posted since the previous WaitAll.
struct OpWaitAll {};

/// Marks the beginning of the rank's next application time step, numbered
/// from 0 (used for Fig. 2 style "where is time step t on the wall-clock
/// axis" analyses).
struct OpMark {};

using Op =
    std::variant<OpCompute, OpMemWork, OpInject, OpIsend, OpIrecv, OpWaitAll,
                 OpMark>;

/// Injection list entry: `iteration` delays `duration` at the point.
struct Injection {
  std::int32_t iteration = 0;
  Duration duration;
};

/// A rank's instruction stream, with fluent builder helpers.
class Program {
 public:
  Program& compute(Duration d, bool noisy = true);
  Program& mem_work(std::int64_t bytes, bool noisy = true);
  Program& inject(Duration d);  ///< a fixed delay in every iteration
  Program& inject_point();      ///< at most one per body
  Program& isend(int peer, std::int64_t bytes, int tag);
  Program& irecv(int peer, std::int64_t bytes, int tag);
  Program& waitall();
  Program& mark();

  /// Runs the body `n` times and seals it. Callable once, and only when
  /// every post is closed by a WaitAll, so no window spans iterations.
  Program& repeat(int n);
  /// Delays `iteration` by `d` at the injection point. Iterations must be
  /// in range and non-decreasing; a repeated iteration adds to its entry.
  Program& inject_at(int iteration, Duration d);

  [[nodiscard]] const std::vector<Op>& body() const { return body_; }
  [[nodiscard]] int repeats() const { return repeats_; }
  [[nodiscard]] std::span<const Injection> injections() const {
    return injections_;
  }

  /// Number of step marks run: the exact step-row size.
  [[nodiscard]] std::size_t step_marks() const {
    return body_marks_ * static_cast<std::size_t>(repeats_);
  }

  /// Exact upper bound on the trace segments this program can record: one
  /// per compute/mem_work/inject run plus at most one wait segment per
  /// WaitAll. The Cluster sizes per-rank trace rows from this.
  [[nodiscard]] std::size_t segment_bound() const {
    return body_segments_ * static_cast<std::size_t>(repeats_) +
           injections_.size();
  }

 private:
  Program& append(Op op, std::size_t segments = 0);
  Program& post(Op op, int peer, std::int64_t bytes);  ///< a send/recv

  std::vector<Op> body_;
  std::vector<Injection> injections_;
  int repeats_ = 1;
  bool sealed_ = false;
  bool has_point_ = false;
  bool open_posts_ = false;  ///< a post since the last WaitAll
  std::size_t body_marks_ = 0;
  std::size_t body_segments_ = 0;
};

}  // namespace iw::mpi
