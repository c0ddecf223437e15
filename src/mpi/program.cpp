#include "mpi/program.hpp"

#include "support/error.hpp"

namespace iw::mpi {

Program& Program::append(Op op, std::size_t segments) {
  IW_REQUIRE(!sealed_, "repeat() sealed the body");
  body_.push_back(op);
  body_segments_ += segments;
  return *this;
}

Program& Program::post(Op op, int peer, std::int64_t bytes) {
  IW_REQUIRE(peer >= 0, "peer must be a valid rank");
  IW_REQUIRE(bytes >= 0, "message size must be non-negative");
  append(op);
  open_posts_ = true;
  return *this;
}

Program& Program::compute(Duration d, bool noisy) {
  IW_REQUIRE(d.ns() >= 0, "compute duration must be non-negative");
  return append(OpCompute{d, noisy}, 1);
}

Program& Program::mem_work(std::int64_t bytes, bool noisy) {
  IW_REQUIRE(bytes >= 0, "memory work must be non-negative");
  return append(OpMemWork{bytes, noisy}, 1);
}

Program& Program::inject(Duration d) {
  IW_REQUIRE(d.ns() >= 0, "injected delay must be non-negative");
  return append(OpInject{d}, 1);
}

Program& Program::inject_point() {
  IW_REQUIRE(!has_point_, "a body has at most one injection point");
  append(OpInject{Duration::zero(), true});
  has_point_ = true;
  return *this;
}

Program& Program::isend(int peer, std::int64_t bytes, int tag) {
  return post(OpIsend{peer, bytes, tag}, peer, bytes);
}

Program& Program::irecv(int peer, std::int64_t bytes, int tag) {
  return post(OpIrecv{peer, bytes, tag}, peer, bytes);
}

Program& Program::waitall() {
  append(OpWaitAll{}, 1);
  open_posts_ = false;
  return *this;
}

Program& Program::mark() {
  append(OpMark{});
  ++body_marks_;
  return *this;
}

Program& Program::repeat(int n) {
  IW_REQUIRE(!sealed_, "repeat() may be called only once");
  IW_REQUIRE(n >= 1, "a body repeats at least once");
  IW_REQUIRE(!open_posts_,
             "a repeated body must close its posts with a WaitAll");
  sealed_ = true;
  repeats_ = n;
  return *this;
}

Program& Program::inject_at(int iteration, Duration d) {
  IW_REQUIRE(has_point_, "inject_at() needs an injection point in the body");
  IW_REQUIRE(d.ns() >= 0, "injected delay must be non-negative");
  IW_REQUIRE(iteration >= 0 && iteration < repeats_,
             "injection iteration out of range");
  IW_REQUIRE(injections_.empty() || injections_.back().iteration <= iteration,
             "injection iterations must be non-decreasing");
  if (!injections_.empty() && injections_.back().iteration == iteration)
    injections_.back().duration += d;
  else
    injections_.push_back(Injection{iteration, d});
  return *this;
}

}  // namespace iw::mpi
