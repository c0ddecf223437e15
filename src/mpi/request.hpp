// Nonblocking communication requests (the MPI_Request analogue).
#pragma once

#include "support/time.hpp"

namespace iw::mpi {

/// Handle to a pending nonblocking operation; an index into the owning
/// process's current request window (requests are created by Isend/Irecv
/// ops and all retired together by the following WaitAll).
using RequestId = int;

/// A request's settle state; the transport keeps everything else about the
/// operation. `timed` is set once the finish time is known, when Transport
/// settles the request (from inside the post for eager sends). No
/// completion event exists: the request counts as settled once the clock
/// reaches `due`.
struct Request {
  bool timed = false;
  SimTime due;
};

}  // namespace iw::mpi
