// idlewaved: the persistent campaign daemon.
//
//   ./build/examples/idlewaved --socket=/tmp/idlewave.sock --threads=4
//
// Accepts campaign submissions over a Unix-domain socket (line-delimited
// JSON: submit | status | cancel | results | shutdown — see
// src/service/protocol.hpp), schedules queued points fair-share across
// clients onto the sweep worker pool, streams SweepRecord JSONL back
// incrementally, and never recomputes a point two campaigns share: completed
// points live in a content-addressed cache keyed by the canonical hash of
// (expanded point, seed, record-schema version). A cache hit replays the
// exact bytes a fresh run would produce.
//
// Flags:
//   --socket=PATH        socket path (required; one daemon per path)
//   --threads=N          worker threads per scheduled batch (default 1)
//   --batch-points=N     max points per scheduling decision (default 8,
//                        at least 1; 0 exits 2 with a usage message)
//   --max-points=N       admission: max queued points per client
//   --max-jobs=N         admission: max open jobs per client
//   --metrics-json=PATH  write a unified metrics snapshot at shutdown
//
// The daemon runs in the foreground and logs to stdout; stop it with the
// protocol's "shutdown" verb (idlewave_client --shutdown) or SIGINT/SIGTERM.
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "service/server.hpp"
#include "support/cli.hpp"

namespace {

using namespace iw;

service::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

int daemon_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.allow_only({"socket", "threads", "batch-points", "max-points",
                  "max-jobs", "metrics-json"});
  const std::string socket_path = cli.get_or("socket", std::string{});
  if (socket_path.empty())
    throw std::runtime_error("--socket=PATH is required");

  obs::MetricsRegistry metrics;
  service::ServerOptions options;
  options.socket_path = socket_path;
  options.service.threads = cli.get_int_or("threads", 1);
  options.service.batch_points = cli.get_u64_or("batch-points", 8);
  if (options.service.batch_points == 0) {
    std::cerr << "idlewaved: --batch-points must be at least 1\n"
                 "usage: idlewaved --socket=PATH [--threads=N] "
                 "[--batch-points=N>=1] [--max-points=N] [--max-jobs=N] "
                 "[--metrics-json=PATH]\n";
    return 2;
  }
  const service::QueueLimits limits;
  options.service.limits.max_points_per_client =
      cli.get_u64_or("max-points", limits.max_points_per_client);
  options.service.limits.max_jobs_per_client =
      cli.get_u64_or("max-jobs", limits.max_jobs_per_client);
  options.service.metrics = &metrics;

  service::Server server(options);
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  server.start();
  std::cout << "idlewaved: listening on " << socket_path << " ("
            << options.service.threads << " worker thread"
            << (options.service.threads == 1 ? "" : "s") << ", batches of "
            << options.service.batch_points << " points)" << std::endl;
  server.wait();
  g_server = nullptr;
  std::cout << "idlewaved: shut down\n" << server.service().status_json()
            << '\n';

  if (const auto metrics_path = cli.get("metrics-json")) {
    std::ofstream out(*metrics_path);
    if (!out)
      throw std::runtime_error("cannot open metrics output: " + *metrics_path);
    out << metrics.snapshot().to_json() << '\n';
    std::cout << "wrote metrics: " << *metrics_path << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return daemon_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "idlewaved: error: " << e.what() << '\n';
    return 1;
  }
}
