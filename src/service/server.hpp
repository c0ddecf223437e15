// idlewaved's socket front-end.
//
// One poll()-driven IO thread owns the AF_UNIX listener, every client
// connection, and a self-pipe the CampaignService tickles (via its
// on_output hook) whenever a job gained ready lines; one worker thread
// runs the service's scheduling loop. All campaign logic lives in the
// service — this class only frames lines, checks job ownership per
// connection, and relays the service's ready output verbatim (which is
// what keeps the stream byte-identical to an in-process drain()).
//
// A connection that drops mid-stream has each of its jobs abandoned:
// queue slots free at once, the running batch stops at its next point
// boundary, and completed physics stays in the shared cache.
//
// A request line may hold at most kMaxLineBytes (LineBuffer's cap): a
// connection whose next line is longer gets a "line-too-long" error line
// and is closed, so no client can grow the daemon without limit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"
#include "support/framing.hpp"

namespace iw::service {

struct ServerOptions {
  std::string socket_path;
  ServiceOptions service;  ///< on_output/on_output_ctx are taken by the server
};

class Server {
 public:
  /// Longest request line a connection may send.
  static constexpr std::size_t kMaxLineBytes = LineBuffer::kMaxLineBytes;

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the IO and scheduler threads. Throws on
  /// bind/listen failure.
  void start();

  /// Requests shutdown (idempotent; also triggered by the protocol's
  /// "shutdown" verb). Running batches stop at their next point boundary.
  void stop();

  /// Blocks until the server has shut down and both threads joined.
  void wait();

  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }
  [[nodiscard]] CampaignService& service() { return service_; }

 private:
  struct Conn {
    ScopedFd fd;
    LineBuffer in;
    /// Jobs submitted on this connection whose terminal line is not yet
    /// sent: each is abandoned if the connection drops.
    std::vector<std::uint64_t> jobs;
    bool dead = false;
  };

  void io_loop();
  void handle_line(Conn& conn, const std::string& line);
  void drain_streams(Conn& conn);
  void disconnect(Conn& conn);
  static void wake_cb(void* ctx);
  /// Wires the service's on_output hook to this server's wakeup pipe
  /// (member-init helper: options_ is declared — and thus built — first).
  static ServiceOptions patch_options(ServerOptions& options, Server* self);

  ServerOptions options_;
  CampaignService service_;
  ScopedFd listen_fd_;
  ScopedFd wake_read_;
  ScopedFd wake_write_;
  std::vector<Conn> conns_;
  std::thread io_thread_;
  std::thread sched_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace iw::service
