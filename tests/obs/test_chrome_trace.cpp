// Tests for the Chrome-trace exporter: flow-arrow pairing, FIFO matching,
// orphan tolerance, engine-track routing, per-track timestamp order and
// the file overload's open failure — against a hand-built mpi::Trace plus
// hand-built recorder records, and against the records of a traced
// two-sided rendezvous run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../mpi/wired_ranks.hpp"
#include "core/trace_io.hpp"
#include "mpi/program.hpp"
#include "mpi/trace.hpp"
#include "net/fabric.hpp"
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

/// One exported trace event: the fields the flow checks need.
struct JsonEvent {
  std::string name;
  std::string ph;
  std::int64_t id = -1;
  int tid = -1;
  std::int64_t ts_ns = -1;
};

/// Parses the exporter's one-event-per-line output (metadata skipped).
std::vector<JsonEvent> parse_events(const std::string& json) {
  const auto field = [](const std::string& line, const std::string& key) {
    const auto pos = line.find("\"" + key + "\":");
    if (pos == std::string::npos) return std::string();
    auto begin = pos + key.size() + 3;
    if (line[begin] == '"') {
      ++begin;
      return line.substr(begin, line.find('"', begin) - begin);
    }
    return line.substr(begin, line.find_first_of(",}", begin) - begin);
  };
  std::vector<JsonEvent> out;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ts\":") == std::string::npos) continue;
    JsonEvent ev;
    ev.name = field(line, "name");
    ev.ph = field(line, "ph");
    if (const std::string id = field(line, "id"); !id.empty())
      ev.id = std::stoll(id);
    ev.tid = std::stoi(field(line, "tid"));
    ev.ts_ns = std::llround(std::stod(field(line, "ts")) * 1000.0);
    out.push_back(ev);
  }
  return out;
}

TEST(ChromeTrace, TwoSidedPushesInFlightPairWithTheirArrivals) {
  // A traced two-sided run with several pushes in flight at once. Rank 0
  // opens handshakes to ranks 1, 2 and 3; the deferred-push rule holds the
  // first two pushes until the last CTS lands at 2 us, then the NIC
  // serializes all three (100 us each). Rank 2 meanwhile pushes to rank 0.
  // Push arrivals are recorded when the push is posted, so the export must
  // still put every arrow's end at the arrival time and keep each track
  // monotone.
  net::FabricProfile fabric = net::FabricProfile::ideal(microseconds(1.0), 1e9);
  fabric.eager_limit_bytes = 0;
  mpi::WiredRanks w(4, {}, fabric);
  obs::Tracer tracer;
  w.transport.set_tracer(&tracer);

  constexpr std::int64_t kBytes = 100'000;
  std::vector<mpi::Program> p(4);
  p[0].irecv(2, kBytes, 0);
  for (int dst = 1; dst <= 3; ++dst) p[0].isend(dst, kBytes, 0);
  p[0].waitall();
  p[1].irecv(0, kBytes, 0).waitall();
  p[2].irecv(0, kBytes, 0).isend(0, kBytes, 0).waitall();
  p[3].irecv(0, kBytes, 0).waitall();
  w.run(p);

  // Arrivals: rank 0's three pushes leave back to back from t = 2 us; rank
  // 2's push leaves at 2 us on its own NIC.
  const std::map<int, SimTime> arrival{{1, SimTime{103'000}},
                                       {2, SimTime{203'000}},
                                       {3, SimTime{303'000}},
                                       {0, SimTime{103'000}}};
  // Zero overhead: each receive completes at its arrival. Ranks 1-3 finish
  // there (rank 2's own push was injected by 102 us); rank 0's window ends
  // when its last push is injected, at 302 us, and its receive is pinned by
  // the arrival leg of its flow below.
  for (int r = 1; r <= 3; ++r) EXPECT_EQ(w.trace.finish(r), arrival.at(r));
  EXPECT_EQ(w.trace.finish(0), SimTime{302'000});

  const std::vector<obs::TraceRecord> records = tracer.drain_ordered();
  int push_sends = 0;
  for (const obs::TraceRecord& r : records)
    if (r.ev == obs::TraceEvent::kPushSend) ++push_sends;
  EXPECT_EQ(push_sends, 4);

  std::ostringstream out;
  write_chrome_trace(mpi::Trace(4), records, out);
  const std::vector<JsonEvent> events = parse_events(out.str());

  // Every push_send pairs with exactly one push flow: one 's' leg on the
  // sender at the push time and one 'f' leg on the receiver at arrival.
  std::map<std::int64_t, std::pair<const JsonEvent*, const JsonEvent*>> flows;
  for (const JsonEvent& ev : events) {
    if (ev.name != "push") continue;
    auto& legs = flows[ev.id];
    if (ev.ph == "s") {
      EXPECT_EQ(legs.first, nullptr) << "two start legs for flow " << ev.id;
      legs.first = &ev;
    } else {
      ASSERT_EQ(ev.ph, "f");
      EXPECT_EQ(legs.second, nullptr) << "two end legs for flow " << ev.id;
      legs.second = &ev;
    }
  }
  ASSERT_EQ(static_cast<int>(flows.size()), push_sends);
  for (const auto& [id, legs] : flows) {
    ASSERT_NE(legs.first, nullptr) << "flow " << id << " has no start leg";
    ASSERT_NE(legs.second, nullptr) << "flow " << id << " has no end leg";
    EXPECT_EQ(legs.first->ts_ns, 2000) << "flow " << id;
    EXPECT_EQ(legs.second->ts_ns, arrival.at(legs.second->tid).ns())
        << "flow " << id;
  }

  // Each track's timestamps stay monotone.
  std::map<int, std::int64_t> last_ts;
  for (const JsonEvent& ev : events) {
    const auto [it, first] = last_ts.try_emplace(ev.tid, ev.ts_ns);
    if (!first) {
      EXPECT_GE(ev.ts_ns, it->second) << ev.name << " on tid " << ev.tid;
      it->second = ev.ts_ns;
    }
  }
}

TEST(ChromeTrace, BadPathThrows) {
  EXPECT_THROW(write_chrome_trace(two_rank_trace(), {},
                                  "/nonexistent-dir/x.trace.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace iw::core
