#include "sim/engine.hpp"

#include <utility>

#include "obs/tracer.hpp"
#include "support/error.hpp"

namespace iw::sim {

void Engine::at(SimTime when, EventFn fn) {
  IW_REQUIRE(when >= now_, "cannot schedule an event in the past");
  calendar_.schedule(when, std::move(fn));
}

void Engine::after(Duration delay, EventFn fn) {
  IW_REQUIRE(delay.ns() >= 0, "event delay must be non-negative");
  calendar_.schedule(now_ + delay, std::move(fn));
}

void Engine::run() { run_until(SimTime::max()); }

void Engine::run_until(SimTime deadline) {
  stopped_ = false;
  if (tracer_ != nullptr)
    tracer_->record(now_, obs::TraceEvent::kRunBegin, -1);
  EventFn fn;
  SimTime when;
  // One calendar call per event. A batch is a run of events at one
  // timestamp: the first event of each call opens one, as does every
  // change of time. (time, seq) determinism holds because the calendar
  // yields equal-time entries in ascending seq order, and anything
  // scheduled at the current time from inside a handler gets a larger seq,
  // so it fires after the events already pending there.
  bool in_batch = false;
  while (!stopped_ && calendar_.pop_until(deadline, when, fn)) {
    if (!in_batch || when != now_) {
      IW_ASSERT(when >= now_, "calendar produced an out-of-order event");
      now_ = when;
      ++batches_;
      in_batch = true;
    }
    ++processed_;
    fn();
  }
  if (tracer_ != nullptr) tracer_->record(now_, obs::TraceEvent::kRunEnd, -1);
}

}  // namespace iw::sim
