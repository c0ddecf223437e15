#include "mpi/process.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace iw::mpi {

Process::Process(int rank, sim::Engine& engine, Transport& transport,
                 Trace& trace)
    : rank_(rank),
      row_(trace.own_row(rank)),
      engine_(engine),
      transport_(transport),
      trace_(&trace) {}

void Process::set_program(const Program* program) {
  IW_REQUIRE(program != nullptr, "program must not be null");
  program_ = program;
}

void Process::reset(int rank, Trace& trace) {
  row_ = trace.own_row(rank);
  rank_ = rank;
  trace_ = &trace;
  program_ = nullptr;
  domain_ = nullptr;
  tracer_ = nullptr;
  noise_.clear();
  pc_ = 0;
  iteration_ = 0;
  next_injection_ = 0;
  next_step_ = 0;
  req_count_ = 0;
  open_requests_ = 0;
  latest_due_ = SimTime::zero();
  blocked_ = false;
  wait_begin_ = SimTime::zero();
  done_ = false;
  IW_AUDIT(settled_.clear());
}

RequestId Process::open_request() {
  ++open_requests_;
  IW_AUDIT(settled_.push_back(0));
  return static_cast<RequestId>(req_count_++);
}

void Process::add_noise(const noise::NoiseSpec& spec, Rng rng) {
  spec.validate();
  noise_.push_back(NoiseSource{spec, rng});
}

void Process::start() {
  IW_REQUIRE(program_ != nullptr, "start() requires a program");
  engine_.at(engine_.now(), [this] { resume(engine_.now()); });
}

Duration Process::sample_noise() {
  Duration extra = Duration::zero();
  for (auto& src : noise_) extra += src.spec.sample(src.rng);
  return extra;
}

void Process::resume(SimTime now) {
  const auto& body = program_->body();
  for (;;) {
    if (pc_ == body.size()) {
      // End of the body: loop back while iterations remain.
      if (iteration_ + 1 >= program_->repeats()) break;
      ++iteration_;
      pc_ = 0;
      continue;
    }
    const Op& op = body[pc_];

    // The send/recv posts lead the dispatch chain: a step posts one of
    // each per neighbor but hits every other op kind once. Each request
    // counts as open before it is posted: an eager send, and a receive
    // that matches an unexpected arrival, settle it from inside the post.
    if (const auto* send = std::get_if<OpIsend>(&op)) {
      IW_ASSERT(now == engine_.now(), "post ahead of the engine clock");
      const RequestId id = open_request();
      transport_.post_send(rank_, send->peer, send->tag + iteration_,
                           send->bytes, id);
      ++pc_;
      continue;
    }

    if (const auto* recv = std::get_if<OpIrecv>(&op)) {
      IW_ASSERT(now == engine_.now(), "post ahead of the engine clock");
      const RequestId id = open_request();
      transport_.post_recv(rank_, recv->peer, recv->tag + iteration_,
                           recv->bytes, id);
      ++pc_;
      continue;
    }

    if (const auto* comp = std::get_if<OpCompute>(&op)) {
      // A fused wait end runs this at its own settle time, ahead of the
      // engine clock: the noise streams are the rank's own, and nothing
      // reads the rank until the compute ends.
      const Duration extra = comp->noisy ? sample_noise() : Duration::zero();
      engine_.at(now + comp->duration + extra, [this, begin = now, extra] {
        end_phase(SegKind::compute, begin, extra);
      });
      return;
    }

    if (const auto* work = std::get_if<OpMemWork>(&op)) {
      IW_ASSERT(now == engine_.now(), "memory work ahead of the engine clock");
      IW_REQUIRE(domain_ != nullptr,
                 "OpMemWork requires a bandwidth domain on this rank");
      const Duration extra = work->noisy ? sample_noise() : Duration::zero();
      domain_->submit(work->bytes, [this, begin = now, extra] {
        engine_.after(extra, [this, begin, extra] {
          end_phase(SegKind::compute, begin, extra);
        });
      });
      return;
    }

    if (const auto* inject = std::get_if<OpInject>(&op)) {
      IW_ASSERT(now == engine_.now(), "injection ahead of the engine clock");
      Duration duration = inject->duration;
      if (inject->point) {
        // The injection point runs only in the iterations the program
        // lists; any other iteration passes it without an event.
        const auto listed = program_->injections();
        if (next_injection_ == listed.size() ||
            listed[next_injection_].iteration != iteration_) {
          ++pc_;
          continue;
        }
        duration = listed[next_injection_++].duration;
      }
      engine_.after(duration, [this, begin = now] {
        end_phase(SegKind::injected, begin, Duration::zero());
      });
      return;
    }

    if (std::holds_alternative<OpWaitAll>(op)) {
      IW_ASSERT(now == engine_.now(), "WaitAll ahead of the engine clock");
      if (requests_settled(now)) {
        req_count_ = 0;
        IW_AUDIT(settled_.clear());
        ++pc_;
        continue;
      }
      blocked_ = true;
      wait_begin_ = now;
      if (tracer_ != nullptr) [[unlikely]]
        tracer_->record(wait_begin_, obs::TraceEvent::kWaitBegin, rank_);
      schedule_timed_wake();
      return;
    }

    if (std::holds_alternative<OpMark>(op)) {
      trace_->append_step(row_, next_step_, now);
      ++next_step_;
      ++pc_;
      continue;
    }

    IW_CHECK(false, "unhandled op kind");
  }

  // Program complete.
  if (!done_) {
    done_ = true;
    trace_->set_row_finish(row_, now);
  }
}

void Process::end_phase(SegKind kind, SimTime begin, Duration noise) {
  // No mark runs while a phase is pending, so the step is still current.
  const SimTime now = engine_.now();
  trace_->append_segment(row_,
                         Segment{kind, begin, now, next_step_ - 1, noise});
  ++pc_;
  resume(now);
}

bool Process::requests_settled(SimTime now) const {
  return open_requests_ == 0 && latest_due_ <= now;
}

bool Process::compute_follows_wait() const {
  // Scan from the op after the WaitAll at pc_, wrapping into the next
  // iteration. The scan stops at the latest on the WaitAll itself.
  const auto& body = program_->body();
  std::size_t pc = pc_ + 1;
  for (;;) {
    if (pc == body.size()) {
      if (iteration_ + 1 >= program_->repeats()) return false;
      pc = 0;
      continue;
    }
    if (std::holds_alternative<OpCompute>(body[pc])) return true;
    if (!std::holds_alternative<OpMark>(body[pc])) return false;
    ++pc;
  }
}

void Process::schedule_timed_wake() {
  // If any request has not settled yet, its settlement will re-arm us.
  // Otherwise every due time is known, and so is the wait's end. When only
  // marks and a core-bound compute follow, ending the wait now at that
  // time is rank-local, so no wake is needed. Else wake at the latest due
  // time. Each window arms at most one wake: the arming call is the one
  // that settles the last open request, and requests settle only once.
  if (open_requests_ > 0) return;
  if (compute_follows_wait()) {
    finish_wait(latest_due_);
    return;
  }
  engine_.at(latest_due_, [this] {
    if (!blocked_) return;
    IW_ASSERT(requests_settled(engine_.now()),
              "timed wake before every request settled");
    finish_wait(engine_.now());
  });
}

void Process::finish_wait(SimTime now) {
  blocked_ = false;
  if (tracer_ != nullptr) [[unlikely]]
    tracer_->record(now, obs::TraceEvent::kWaitEnd, rank_);
  if (now > wait_begin_) {
    trace_->append_segment(row_, Segment{SegKind::wait, wait_begin_, now,
                                         next_step_ - 1, Duration::zero()});
  }
  req_count_ = 0;
  IW_AUDIT(settled_.clear());
  latest_due_ = SimTime::zero();
  ++pc_;
  resume(now);
}

void Process::on_request_settles_at(RequestId id, SimTime due) {
  IW_REQUIRE(id >= 0 && static_cast<std::uint32_t>(id) < req_count_,
             "unknown request id");
  IW_ASSERT(settled_[static_cast<std::size_t>(id)] == 0,
            "request settled twice");
  IW_AUDIT(settled_[static_cast<std::size_t>(id)] = 1);
  latest_due_ = std::max(latest_due_, due);
  --open_requests_;

  if (!blocked_) return;
  if (!requests_settled(engine_.now())) {
    schedule_timed_wake();
    return;
  }
  finish_wait(engine_.now());
}

}  // namespace iw::mpi
