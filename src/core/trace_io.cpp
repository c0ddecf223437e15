#include "core/trace_io.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace iw::core {
namespace {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace output: " + path);
  return out;
}

/// Microsecond timestamp at nanosecond resolution, written as a decimal
/// string ("12.345") so rounding can never reorder equal-ns events.
std::string ts_us(SimTime t) {
  const std::int64_t ns = t.ns();
  const std::int64_t frac = ns % 1000;
  std::string out = std::to_string(ns / 1000);
  out += '.';
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
  return out;
}

/// One serialized trace event, keyed for the per-track sort.
struct ChromeEvent {
  int tid;
  std::int64_t ts_ns;
  std::string json;
};

/// A send/arrival record pair that becomes a flow arrow. `mirrored` says
/// the arrival is recorded from the receiving rank's perspective
/// (rank=receiver, peer=sender); the RDMA-get pair records both ends on
/// the issuing rank, so its arrival keeps the send's orientation.
struct FlowPairSpec {
  obs::TraceEvent send;
  obs::TraceEvent recv;
  const char* name;
  bool mirrored;
};

constexpr FlowPairSpec kFlowPairs[] = {
    {obs::TraceEvent::kEagerSend, obs::TraceEvent::kEagerRecv, "eager", true},
    {obs::TraceEvent::kRtsSend, obs::TraceEvent::kRtsRecv, "rts", true},
    {obs::TraceEvent::kCtsSend, obs::TraceEvent::kCtsRecv, "cts", true},
    {obs::TraceEvent::kPushSend, obs::TraceEvent::kPushRecv, "push", true},
    {obs::TraceEvent::kGetSend, obs::TraceEvent::kGetRecv, "get", false},
    {obs::TraceEvent::kFinSend, obs::TraceEvent::kFinRecv, "fin", true},
};

/// Index into kFlowPairs when `ev` opens (as_send) or closes (!as_send) a
/// flow; -1 otherwise.
int flow_pair_index(obs::TraceEvent ev, bool as_send) {
  for (int i = 0; i < static_cast<int>(std::size(kFlowPairs)); ++i)
    if ((as_send ? kFlowPairs[i].send : kFlowPairs[i].recv) == ev) return i;
  return -1;
}

}  // namespace

void write_chrome_trace(const mpi::Trace& trace,
                        const std::vector<obs::TraceRecord>& records,
                        std::ostream& out) {
  std::vector<ChromeEvent> events;
  events.reserve(records.size() * 2 + 64);
  const int engine_tid = trace.ranks();  // one past the last rank track

  // Segments: one complete ("X") slice per trace segment.
  for (int rank = 0; rank < trace.ranks(); ++rank) {
    for (const auto& seg : trace.segments(rank)) {
      std::ostringstream os;
      os << "{\"name\":\"" << mpi::to_string(seg.kind)
         << "\",\"cat\":\"segment\",\"ph\":\"X\",\"pid\":0,\"tid\":" << rank
         << ",\"ts\":" << ts_us(seg.begin)
         << ",\"dur\":" << ts_us(SimTime::zero() + seg.duration())
         << ",\"args\":{\"step\":" << seg.step
         << ",\"noise_ns\":" << seg.noise.ns() << "}}";
      events.push_back({rank, seg.begin.ns(), os.str()});
    }
  }

  // Flight-recorder records: one instant ("i") per record, plus FIFO flow
  // matching per (src, dst, kind pair, bytes) — the order the wire (and the
  // bandwidth domains, which never reorder equal-size same-pair transfers)
  // preserves.
  using FlowKey = std::tuple<int, int, int, std::int64_t>;
  std::map<FlowKey, std::deque<std::size_t>> pending;
  std::uint64_t next_flow_id = 1;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::TraceRecord& rec = records[i];
    const int tid = rec.rank < 0 ? engine_tid : rec.rank;
    std::ostringstream os;
    os << "{\"name\":\"" << obs::to_string(rec.ev)
       << "\",\"cat\":\"protocol\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
       << "\"tid\":" << tid << ",\"ts\":" << ts_us(rec.t)
       << ",\"args\":{\"peer\":" << rec.peer << ",\"bytes\":" << rec.bytes;
    if (rec.slot != obs::Tracer::kNoSlot) os << ",\"slot\":" << rec.slot;
    os << "}}";
    events.push_back({tid, rec.t.ns(), os.str()});

    if (const int p = flow_pair_index(rec.ev, /*as_send=*/true); p >= 0) {
      pending[FlowKey{p, rec.rank, rec.peer, rec.bytes}].push_back(i);
      continue;
    }
    const int p = flow_pair_index(rec.ev, /*as_send=*/false);
    if (p < 0) continue;
    const FlowKey key = kFlowPairs[p].mirrored
                            ? FlowKey{p, rec.peer, rec.rank, rec.bytes}
                            : FlowKey{p, rec.rank, rec.peer, rec.bytes};
    const auto it = pending.find(key);
    if (it == pending.end() || it->second.empty())
      continue;  // send record evicted from the ring: no arrow
    const obs::TraceRecord& send = records[it->second.front()];
    it->second.pop_front();
    const std::uint64_t id = next_flow_id++;
    std::ostringstream ss;
    ss << "{\"name\":\"" << kFlowPairs[p].name
       << "\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" << id
       << ",\"pid\":0,\"tid\":" << send.rank << ",\"ts\":" << ts_us(send.t)
       << "}";
    events.push_back({send.rank, send.t.ns(), ss.str()});
    std::ostringstream fs;
    fs << "{\"name\":\"" << kFlowPairs[p].name
       << "\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << id
       << ",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << ts_us(rec.t) << "}";
    events.push_back({tid, rec.t.ns(), fs.str()});
  }

  // Per-track monotone timestamps; the stable sort keeps the natural
  // emission order (segment before instants, instant before its flow leg)
  // among equal-time events of one track.
  std::stable_sort(events.begin(), events.end(),
                   [](const ChromeEvent& a, const ChromeEvent& b) {
                     return a.tid != b.tid ? a.tid < b.tid : a.ts_ns < b.ts_ns;
                   });

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Track-name metadata first (no timestamps; viewers and the validator
  // treat "M" events as out-of-band).
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
         "\"args\":{\"name\":\"idlewave cluster\"}}";
  for (int rank = 0; rank < trace.ranks(); ++rank)
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
        << rank << ",\"args\":{\"name\":\"rank " << rank << "\"}}";
  out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
      << engine_tid << ",\"args\":{\"name\":\"engine\"}}";
  for (const ChromeEvent& ev : events) out << ",\n" << ev.json;
  out << "\n]}\n";
}

void write_chrome_trace(const mpi::Trace& trace,
                        const std::vector<obs::TraceRecord>& records,
                        const std::string& path) {
  auto out = open_or_throw(path);
  write_chrome_trace(trace, records, out);
}

}  // namespace iw::core
