// idlewave_client: CLI for a running idlewaved.
//
//   ./build/examples/idlewave_client --socket=/tmp/idlewave.sock --submit
//       --scenario=speed_vs_delay --delay-ms=6,12 --np=8 --steps=10
//       --jsonl=out.jsonl
//   ./build/examples/idlewave_client --socket=... --status
//   ./build/examples/idlewave_client --socket=... --cancel=3
//   ./build/examples/idlewave_client --socket=... --results=3 --jsonl=replay.jsonl
//   ./build/examples/idlewave_client --socket=... --shutdown
//
// --submit resolves a scenario exactly like sweep_runner (one shared
// sweep::resolve_scenario: every IW_SWEEP_AXES flag overrides its axis;
// --steps/--seed override campaign scalars), ships
// it to the daemon, and streams the job: record lines are appended to the
// --jsonl file VERBATIM — the daemon sends the exact bytes JsonlSink would
// write, so the client-side file is byte-identical to a local sweep_runner
// run of the same campaign, whether the daemon computed the points or
// replayed them from its cache.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "service/protocol.hpp"
#include "support/cli.hpp"
#include "support/framing.hpp"
#include "support/json.hpp"
#include "sweep/axes.hpp"
#include "sweep/scenario.hpp"

namespace {

using namespace iw;

/// Blocking line reader over the client socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// False on EOF (daemon closed the connection). Throws on a line longer
  /// than LineBuffer::kMaxLineBytes.
  bool next(std::string& line) {
    while (!buf_.next_line(line)) {
      if (buf_.overlong())
        throw std::runtime_error(
            "daemon sent a line longer than " +
            std::to_string(LineBuffer::kMaxLineBytes) + " bytes");
      char chunk[16384];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buf_.feed(chunk, static_cast<std::size_t>(n));
    }
    return true;
  }

 private:
  int fd_;
  LineBuffer buf_;
};

std::uint64_t field_u64(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is(json::Value::Kind::number)
             ? static_cast<std::uint64_t>(f->number)
             : 0;
}

std::string field_text(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f != nullptr ? f->text : std::string{};
}

int do_submit(const Cli& cli, int fd) {
  const sweep::SweepSpec spec =
      sweep::resolve_scenario(cli.get_or("scenario", std::string{}), cli).spec;
  const std::string client = cli.get_or("client", std::string{"cli"});
  const int priority = cli.get_int_or("priority", 0);
  if (!send_line(fd, service::submit_line(client, priority, spec)))
    throw std::runtime_error("daemon closed the connection on submit");

  std::ofstream jsonl;
  const auto jsonl_path = cli.get("jsonl");
  if (jsonl_path) {
    jsonl.open(*jsonl_path, std::ios::binary);
    if (!jsonl)
      throw std::runtime_error("cannot open JSONL output: " + *jsonl_path);
  }
  const bool quiet = cli.has("quiet");

  LineReader reader(fd);
  std::string line;
  std::size_t records = 0;
  while (reader.next(line)) {
    if (service::is_record_line(line)) {
      if (jsonl) jsonl << line << '\n';
      records += 1;
      continue;
    }
    const json::Value msg = json::parse(line, "response");
    const std::string type = field_text(msg, "type");
    if (type == "accepted") {
      if (!quiet)
        std::cout << "job " << field_u64(msg, "job") << " accepted: "
                  << field_u64(msg, "points") << " points, "
                  << field_u64(msg, "cached") << " cached\n";
    } else if (type == "done") {
      std::cout << "job " << field_u64(msg, "job") << " done: "
                << field_u64(msg, "records") << " records ("
                << field_u64(msg, "cache_hits") << " cache hits, "
                << field_u64(msg, "computed") << " computed)\n";
      if (jsonl_path)
        std::cout << "wrote JSONL: " << *jsonl_path << " (" << records
                  << " records)\n";
      return 0;
    } else if (type == "cancelled") {
      std::cout << "job " << field_u64(msg, "job") << " cancelled after "
                << field_u64(msg, "records") << " records\n";
      return 3;
    } else if (type == "error") {
      std::cerr << "rejected [" << field_text(msg, "code")
                << "]: " << field_text(msg, "message") << '\n';
      return 1;
    } else {
      std::cerr << "unexpected response: " << line << '\n';
      return 1;
    }
  }
  std::cerr << "daemon closed the connection mid-stream\n";
  return 1;
}

int do_results(const Cli& cli, int fd, std::uint64_t job) {
  if (!send_line(fd, service::results_line(job)))
    throw std::runtime_error("daemon closed the connection");
  std::ofstream jsonl;
  const auto jsonl_path = cli.get("jsonl");
  if (jsonl_path) {
    jsonl.open(*jsonl_path, std::ios::binary);
    if (!jsonl)
      throw std::runtime_error("cannot open JSONL output: " + *jsonl_path);
  }
  LineReader reader(fd);
  std::string line;
  while (reader.next(line)) {
    if (service::is_record_line(line)) {
      if (jsonl) jsonl << line << '\n';
      continue;
    }
    const json::Value msg = json::parse(line, "response");
    if (field_text(msg, "type") == "error") {
      std::cerr << "results failed [" << field_text(msg, "code")
                << "]: " << field_text(msg, "message") << '\n';
      return 1;
    }
    std::cout << line << '\n';
    return 0;
  }
  std::cerr << "daemon closed the connection mid-replay\n";
  return 1;
}

int client_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  std::vector<std::string> known_flags = {
      "socket", "submit",  "status", "cancel",   "results", "shutdown",
      "client", "priority", "scenario", "steps", "seed",    "jsonl",
      "quiet"};
  for (std::string& flag : sweep::axis_cli_flags())
    known_flags.push_back(std::move(flag));
  cli.allow_only(known_flags);

  const std::string socket_path = cli.get_or("socket", std::string{});
  if (socket_path.empty())
    throw std::runtime_error("--socket=PATH is required");
  ScopedFd fd = unix_connect(socket_path);

  if (cli.has("submit")) return do_submit(cli, fd.get());
  if (cli.has("results"))
    return do_results(cli, fd.get(), cli.get_u64_or("results", 0));

  // Single-exchange verbs: one request line, one response line.
  std::string request;
  if (cli.has("status")) {
    request = service::status_line();
  } else if (cli.has("cancel")) {
    request = service::cancel_line(cli.get_u64_or("cancel", 0));
  } else if (cli.has("shutdown")) {
    request = service::shutdown_line();
  } else {
    std::cerr << "one of --submit | --status | --cancel=JOB | --results=JOB"
                 " | --shutdown is required\n";
    return 2;
  }
  if (!send_line(fd.get(), request))
    throw std::runtime_error("daemon closed the connection");
  LineReader reader(fd.get());
  std::string line;
  if (!reader.next(line))
    throw std::runtime_error("daemon closed the connection without replying");
  std::cout << line << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return client_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "idlewave_client: error: " << e.what() << '\n';
    return 1;
  }
}
