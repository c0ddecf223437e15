// Trace export: Chrome-trace JSON of a run's segments and protocol
// flight-recorder records (chrome://tracing, Perfetto), the view the paper
// extracts from Intel Trace Analyzer recordings.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "mpi/trace.hpp"
#include "obs/tracer.hpp"

namespace iw::core {

/// Writes a Chrome-trace ("Trace Event Format") JSON file loadable by
/// chrome://tracing and Perfetto. One track (tid) per rank carries the
/// trace's segments as complete ("X") events plus every flight-recorder
/// record of that rank as an instant ("i") event; engine-level records
/// (rank < 0) land on an extra "engine" track. Protocol send records are
/// connected to their matching arrival on the peer track by flow arrows
/// ("s"/"f"), matched FIFO per (src, dst, message kind, size) — the same
/// order the wire preserves. Arrivals whose send record was evicted from
/// the recorder ring stay arrowless; timestamps are microseconds at
/// nanosecond resolution, monotone per track. `records` must be in record
/// order (obs::Tracer::drain_ordered()).
void write_chrome_trace(const mpi::Trace& trace,
                        const std::vector<obs::TraceRecord>& records,
                        std::ostream& out);
void write_chrome_trace(const mpi::Trace& trace,
                        const std::vector<obs::TraceRecord>& records,
                        const std::string& path);

}  // namespace iw::core
