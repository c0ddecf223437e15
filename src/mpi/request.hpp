// Nonblocking communication requests (the MPI_Request analogue).
#pragma once

#include <cstdint>

#include "support/time.hpp"

namespace iw::mpi {

/// Handle to a pending nonblocking operation; an index into the owning
/// process's current request window (requests are created by Isend/Irecv
/// ops and all retired together by the following WaitAll).
using RequestId = int;

struct Request {
  enum class Kind : std::uint8_t { send, recv };

  Kind kind = Kind::send;
  int peer = -1;
  int tag = 0;
  std::int64_t bytes = 0;
  /// Set once the finish time is known (at post time for eager sends,
  /// through Transport's completion wiring otherwise). No completion event
  /// exists: the request counts as settled once the clock reaches `due`.
  bool timed = false;
  SimTime due;
};

}  // namespace iw::mpi
