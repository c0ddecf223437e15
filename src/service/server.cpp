#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include "service/protocol.hpp"

namespace iw::service {

ServiceOptions Server::patch_options(ServerOptions& options, Server* self) {
  options.service.on_output = &Server::wake_cb;
  options.service.on_output_ctx = self;
  return options.service;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), service_(patch_options(options_, this)) {}

Server::~Server() {
  stop();
  wait();
}

void Server::wake_cb(void* ctx) {
  Server* self = static_cast<Server*>(ctx);
  const char byte = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n =
      ::write(self->wake_write_.get(), &byte, 1);
}

void Server::start() {
  if (started_) return;
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0)
    throw std::runtime_error("pipe failed for service wakeup");
  wake_read_.reset(pipe_fds[0]);
  wake_write_.reset(pipe_fds[1]);
  listen_fd_ = unix_listen(options_.socket_path);
  started_ = true;
  sched_thread_ = std::thread([this] { service_.run_loop(); });
  io_thread_ = std::thread([this] { io_loop(); });
}

void Server::stop() {
  if (stopping_.exchange(true)) return;
  service_.stop();
  if (wake_write_.valid()) wake_cb(this);
}

void Server::wait() {
  if (io_thread_.joinable()) io_thread_.join();
  if (sched_thread_.joinable()) sched_thread_.join();
}

void Server::io_loop() {
  std::vector<pollfd> fds;
  std::vector<char> buf(64 * 1024);
  while (!stopping_.load()) {
    fds.clear();
    fds.push_back(pollfd{listen_fd_.get(), POLLIN, 0});
    fds.push_back(pollfd{wake_read_.get(), POLLIN, 0});
    for (const Conn& c : conns_) fds.push_back(pollfd{c.fd.get(), POLLIN, 0});
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load()) break;
    if ((fds[1].revents & POLLIN) != 0) {
      // One read per wakeup; leftover bytes just re-trigger the next poll.
      char scratch[256];
      [[maybe_unused]] const ssize_t n =
          ::read(wake_read_.get(), scratch, sizeof scratch);
    }
    // New service output may belong to any connection's streams.
    for (Conn& c : conns_)
      if (!c.dead) drain_streams(c);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (c.dead || (fds[2 + i].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      const ssize_t n = ::read(c.fd.get(), buf.data(), buf.size());
      if (n <= 0) {
        c.dead = true;
        continue;
      }
      c.in.feed(buf.data(), static_cast<std::size_t>(n));
      std::string line;
      while (!c.dead && !stopping_.load() && c.in.next_line(line))
        handle_line(c, line);
      if (!c.dead && c.in.overlong()) {
        // Best effort: the connection closes whether or not this lands.
        (void)send_line(c.fd.get(),
                        error_response("line-too-long",
                                       "request line exceeds " +
                                           std::to_string(kMaxLineBytes) +
                                           " bytes"));
        c.dead = true;
      }
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (fd >= 0) {
        conns_.emplace_back();
        conns_.back().fd.reset(fd);
      }
    }
    for (std::size_t i = 0; i < conns_.size();) {
      if (conns_[i].dead) {
        disconnect(conns_[i]);
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (Conn& c : conns_) disconnect(c);
  conns_.clear();
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

void Server::handle_line(Conn& conn, const std::string& line) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    if (!send_line(conn.fd.get(), error_response("bad-request", e.what())))
      conn.dead = true;
    return;
  }
  switch (req.type) {
    case RequestType::submit: {
      const SubmitResult r =
          service_.submit(req.client, req.priority, req.spec);
      if (!r.accepted) {
        if (!send_line(conn.fd.get(),
                       error_response(r.error_code, r.message)))
          conn.dead = true;
        return;
      }
      if (!send_line(conn.fd.get(),
                     accepted_response(r.job, r.points, r.cached))) {
        conn.dead = true;
        service_.abandon(r.job);
        return;
      }
      conn.jobs.push_back(r.job);
      drain_streams(conn);
      return;
    }
    case RequestType::status: {
      if (!send_line(conn.fd.get(), service_.status_json())) conn.dead = true;
      return;
    }
    case RequestType::cancel: {
      // Any connection may cancel (the socket is a local trust boundary);
      // the submitting connection's stream receives every record the batch
      // completed, then the terminal "cancelled" line.
      const bool ok = service_.cancel(req.job);
      if (!send_line(conn.fd.get(), cancel_ack_response(req.job, ok)))
        conn.dead = true;
      else
        drain_streams(conn);
      return;
    }
    case RequestType::results: {
      // The replay is framed under the service lock and sent outside it,
      // terminator included, in one send.
      std::string out;
      const std::optional<std::size_t> records =
          service_.results_so_far(req.job, out);
      if (!records) {
        const std::string err = error_response(
            "unknown-job", "no job " + std::to_string(req.job));
        if (!send_line(conn.fd.get(), err)) conn.dead = true;
        return;
      }
      out += results_response(req.job, *records);
      out += '\n';
      if (!send_all(conn.fd.get(), out.data(), out.size())) conn.dead = true;
      return;
    }
    case RequestType::shutdown: {
      if (!send_line(conn.fd.get(), bye_response())) conn.dead = true;
      stopping_.store(true);
      service_.stop();
      return;
    }
  }
}

void Server::drain_streams(Conn& conn) {
  // The drained lines are framed into one buffer and sent when it reaches
  // kFlushBytes and at the end: one send per drain, not one per record.
  constexpr std::size_t kFlushBytes = std::size_t{64} << 10;
  std::string out;
  const auto flush = [&conn, &out] {
    const bool ok = send_all(conn.fd.get(), out.data(), out.size());
    out.clear();
    if (!ok) conn.dead = true;
    return ok;
  };
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < conn.jobs.size();) {
    const std::uint64_t job = conn.jobs[i];
    // Order matters: checking finished() before draining guarantees the
    // terminal line (pushed before finished() flips) is in this drain.
    const bool fin = service_.finished(job);
    lines.clear();
    service_.drain(job, lines);
    for (const std::string& l : lines) {
      out += l;
      out += '\n';
      if (out.size() >= kFlushBytes && !flush()) return;
    }
    // Its terminal line is drained: abandon() would be a no-op from here
    // on, so the connection forgets the job.
    if (fin)
      conn.jobs.erase(conn.jobs.begin() + static_cast<std::ptrdiff_t>(i));
    else
      ++i;
  }
  if (!out.empty()) (void)flush();
}

void Server::disconnect(Conn& conn) {
  for (const std::uint64_t job : conn.jobs) service_.abandon(job);
  conn.fd.reset();
  conn.jobs.clear();
}

}  // namespace iw::service
