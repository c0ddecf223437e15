// Host wall-clock spans for the traced run of idlewave_bench.
//
// Spans are recorded only from the benchmark's own files, around calls into
// each module's public functions; nothing under src/ is instrumented. They
// stay in memory and are written as Chrome-trace JSON when the run ends.
// A span's self time is its duration minus the part of it that its child
// spans cover (children may run on other threads and overlap each other,
// so the covered part is the union of their intervals).
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_stats.hpp"

namespace iw::bench {

class Spans {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    const char* name = "";
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t tid = 0;
    std::int32_t parent = kNoParent;
    std::int32_t outer = kNoParent;  ///< innermost open span before this one
  };

  Spans() : origin_(Clock::now()) {}

  /// Opens a span; the parent is the innermost span open on this thread
  /// unless `parent` names one explicitly.
  std::int32_t open(const char* name, std::int32_t parent = kNoParent) {
    const std::int64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint32_t tid = thread_index();
    const std::int32_t outer = current_[tid];
    spans_.push_back(
        Span{name, now, now, tid, parent == kNoParent ? outer : parent, outer});
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    current_[tid] = id;
    return id;
  }

  void close(std::int32_t id) {
    const std::int64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now;
    if (current_[s.tid] == id) current_[s.tid] = s.outer;
  }

  /// Records an already-measured interval (a phase a callee timed itself,
  /// or a request whose end was only known later).
  std::int32_t record(const char* name, std::int64_t begin_ns,
                      std::int64_t end_ns, std::int32_t parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        Span{name, begin_ns, end_ns, thread_index(), parent, kNoParent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  [[nodiscard]] std::int64_t ns_at(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  [[nodiscard]] std::int64_t now_ns() const { return ns_at(Clock::now()); }

  struct SelfTime {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  /// Per span name: count, total and self time.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_)
      if (s.parent != kNoParent)
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.begin_ns,
                                                                  s.end_ns);
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0;
      std::int64_t reach = s.begin_ns;
      for (auto [b, e] : kids) {
        b = std::max(b, reach);
        e = std::min(e, s.end_ns);
        if (e > b) {
          covered += e - b;
          reach = e;
        }
      }
      SelfTime& t = out[s.name];
      t.count += 1;
      t.total_ms += static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
      t.self_ms += static_cast<double>(s.end_ns - s.begin_ns - covered) / 1e6;
    }
    return out;
  }

  /// Writes every span as a Chrome-trace complete event ("ph":"X").
  void write_chrome_trace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << static_cast<double>(s.begin_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.begin_ns) / 1e3
          << "}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  // Must hold mutex_. Small dense thread ids for the trace viewer.
  std::uint32_t thread_index() {
    const auto id = std::this_thread::get_id();
    for (std::size_t i = 0; i < threads_.size(); ++i)
      if (threads_[i] == id) return static_cast<std::uint32_t>(i);
    threads_.push_back(id);
    current_.push_back(kNoParent);
    return static_cast<std::uint32_t>(threads_.size() - 1);
  }

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
  std::vector<std::int32_t> current_;  ///< innermost open span per thread
};

/// RAII span; a null recorder (the untraced run) records nothing.
class SpanScope {
 public:
  SpanScope(Spans* spans, const char* name,
            std::int32_t parent = Spans::kNoParent)
      : spans_(spans), id_(spans ? spans->open(name, parent) : -1) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Spans* spans_;
  std::int32_t id_;
};

}  // namespace iw::bench
