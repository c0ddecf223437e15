// Tests for the Chrome-trace exporter: flow-arrow pairing, FIFO matching,
// orphan tolerance, engine-track routing, per-track timestamp order and
// the file overload's open failure — all against a hand-built mpi::Trace
// plus hand-built recorder records.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trace_io.hpp"
#include "mpi/trace.hpp"
#include "obs/tracer.hpp"

namespace iw::core {
namespace {

mpi::Trace two_rank_trace() {
  mpi::Trace trace(2);
  trace.add_segment(0, {mpi::SegKind::compute, SimTime{0}, SimTime{5000}, 0,
                        Duration::zero()});
  trace.add_segment(1, {mpi::SegKind::wait, SimTime{1000}, SimTime{4000}, 0,
                        Duration::zero()});
  trace.set_finish(0, SimTime{5000});
  trace.set_finish(1, SimTime{4000});
  return trace;
}

std::string render(const mpi::Trace& trace,
                   const std::vector<obs::TraceRecord>& records) {
  std::ostringstream out;
  write_chrome_trace(trace, records, out);
  return out.str();
}

int count(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (auto pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

obs::TraceRecord rec(std::int64_t t_ns, obs::TraceEvent ev, int rank,
                     int peer = -1, std::int64_t bytes = 0) {
  return obs::TraceRecord{SimTime{t_ns}, ev, rank, peer, bytes,
                          obs::Tracer::kNoSlot};
}

TEST(ChromeTrace, MetadataNamesEveryTrack) {
  const std::string json = render(two_rank_trace(), {});
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"idlewave cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 1\""), std::string::npos);
  // The engine track sits one past the last rank.
  EXPECT_NE(json.find("\"tid\":2,\"args\":{\"name\":\"engine\"}"),
            std::string::npos);
}

TEST(ChromeTrace, SegmentsBecomeCompleteEvents) {
  const std::string json = render(two_rank_trace(), {});
  EXPECT_NE(json.find("\"name\":\"compute\",\"cat\":\"segment\",\"ph\":\"X\","
                      "\"pid\":0,\"tid\":0,\"ts\":0.000,\"dur\":5.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"wait\""), std::string::npos);
}

TEST(ChromeTrace, MirroredPairMakesOneFlowArrow) {
  // Eager send on rank 0 at t=1000, mirrored arrival on rank 1 at t=2000.
  const std::string json = render(
      two_rank_trace(),
      {rec(1000, obs::TraceEvent::kEagerSend, 0, 1, 64),
       rec(2000, obs::TraceEvent::kEagerRecv, 1, 0, 64)});
  EXPECT_EQ(count(json, "\"ph\":\"s\""), 1);
  EXPECT_EQ(count(json, "\"ph\":\"f\""), 1);
  // Start leg on the sender's track at the send instant, end leg on the
  // receiver's track at the arrival instant, sharing one id.
  EXPECT_NE(json.find("\"name\":\"eager\",\"cat\":\"flow\",\"ph\":\"s\","
                      "\"id\":1,\"pid\":0,\"tid\":0,\"ts\":1.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"eager\",\"cat\":\"flow\",\"ph\":\"f\","
                      "\"bp\":\"e\",\"id\":1,\"pid\":0,\"tid\":1,"
                      "\"ts\":2.000"),
            std::string::npos)
      << json;
}

TEST(ChromeTrace, FifoMatchingPairsInWireOrder) {
  // Two same-pair same-size sends, two arrivals: first arrival takes the
  // first send (FIFO), so flow 1 spans 1000->3000 and flow 2 spans
  // 2000->4000.
  const std::string json = render(
      two_rank_trace(),
      {rec(1000, obs::TraceEvent::kRtsSend, 0, 1, 256),
       rec(2000, obs::TraceEvent::kRtsSend, 0, 1, 256),
       rec(3000, obs::TraceEvent::kRtsRecv, 1, 0, 256),
       rec(4000, obs::TraceEvent::kRtsRecv, 1, 0, 256)});
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":1,\"pid\":0,\"tid\":0,"
                      "\"ts\":1.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"pid\":0,"
                      "\"tid\":1,\"ts\":3.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":2,\"pid\":0,\"tid\":0,"
                      "\"ts\":2.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":2,\"pid\":0,"
                      "\"tid\":1,\"ts\":4.000"),
            std::string::npos)
      << json;
}

TEST(ChromeTrace, OrphanArrivalGetsNoArrow) {
  // An arrival whose send was evicted from the recorder ring renders as an
  // instant but produces no flow legs; different bytes also never match.
  const std::string json = render(
      two_rank_trace(),
      {rec(1000, obs::TraceEvent::kEagerSend, 0, 1, 64),
       rec(2000, obs::TraceEvent::kEagerRecv, 1, 0, 128)});
  EXPECT_NE(json.find("\"name\":\"eager_recv\""), std::string::npos);
  EXPECT_EQ(count(json, "\"ph\":\"s\""), 0);
  EXPECT_EQ(count(json, "\"ph\":\"f\""), 0);
}

TEST(ChromeTrace, GetPairMatchesUnmirrored) {
  // RDMA get records both ends on the issuing rank (rank=1 peer=0 twice);
  // the arrow must still form, on the issuing rank's track.
  const std::string json = render(
      two_rank_trace(),
      {rec(1000, obs::TraceEvent::kGetSend, 1, 0, 512),
       rec(3000, obs::TraceEvent::kGetRecv, 1, 0, 512)});
  EXPECT_NE(json.find("\"name\":\"get\",\"cat\":\"flow\",\"ph\":\"s\","
                      "\"id\":1,\"pid\":0,\"tid\":1,\"ts\":1.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"get\",\"cat\":\"flow\",\"ph\":\"f\","
                      "\"bp\":\"e\",\"id\":1,\"pid\":0,\"tid\":1,"
                      "\"ts\":3.000"),
            std::string::npos)
      << json;
}

TEST(ChromeTrace, EngineRecordsLandOnEngineTrack) {
  const std::string json = render(
      two_rank_trace(), {rec(0, obs::TraceEvent::kRunBegin, -1),
                         rec(9000, obs::TraceEvent::kRunEnd, -1)});
  EXPECT_NE(json.find("\"name\":\"run_begin\",\"cat\":\"protocol\",\"ph\":"
                      "\"i\",\"s\":\"t\",\"pid\":0,\"tid\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"run_end\""), std::string::npos);
}

TEST(ChromeTrace, TimestampsMonotonePerTrack) {
  // Records handed over out of track order (rank 1 first) must still come
  // out sorted per tid.
  const std::string json = render(
      two_rank_trace(),
      {rec(8000, obs::TraceEvent::kWaitEnd, 1),
       rec(7000, obs::TraceEvent::kPostSend, 0, 1, 64),
       rec(100, obs::TraceEvent::kPostRecv, 1, 0, 64),
       rec(50, obs::TraceEvent::kMatch, 0, 1, 64)});
  std::istringstream in(json);
  std::string line;
  int last_tid = -1;
  double last_ts = -1.0;
  int timed_events = 0;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"M\"") != std::string::npos) continue;
    const auto tid_pos = line.find("\"tid\":");
    const auto ts_pos = line.find("\"ts\":");
    if (tid_pos == std::string::npos || ts_pos == std::string::npos) continue;
    const int tid = std::stoi(line.substr(tid_pos + 6));
    const double ts = std::stod(line.substr(ts_pos + 5));
    if (tid != last_tid) {
      last_tid = tid;
      last_ts = -1.0;
    } else {
      EXPECT_GE(tid, last_tid) << "tracks interleaved: " << line;
    }
    EXPECT_GE(ts, last_ts) << "time went backwards on tid " << tid << ": "
                           << line;
    last_ts = ts;
    ++timed_events;
  }
  EXPECT_GE(timed_events, 6);  // 2 segments + 4 instants
}

TEST(ChromeTrace, BadPathThrows) {
  EXPECT_THROW(write_chrome_trace(two_rank_trace(), {},
                                  "/nonexistent-dir/x.trace.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace iw::core
