// Local-socket plumbing for the campaign service: RAII fds, AF_UNIX
// listen/connect, line framing.
//
// The idlewaved protocol is line-delimited JSON over a Unix-domain stream
// socket; everything transport-shaped about that lives here so the server,
// the client and the tests share one implementation. Sends use MSG_NOSIGNAL
// (a peer that vanished mid-stream must surface as an error return, never
// as SIGPIPE killing the daemon), and the LineBuffer tolerates arbitrary
// read fragmentation.
#pragma once

#include <cstddef>
#include <string>

namespace iw {

/// Move-only owner of a file descriptor; closes on destruction.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  ScopedFd& operator=(ScopedFd&& other) noexcept;
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() { reset(); }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Closes the current fd (if any) and adopts `fd`.
  void reset(int fd = -1);
  /// Releases ownership without closing.
  int release();

 private:
  int fd_ = -1;
};

/// Binds and listens on an AF_UNIX stream socket at `path`, unlinking a
/// stale socket file first. Throws std::runtime_error (with errno text) on
/// failure, including a path longer than sockaddr_un::sun_path allows.
[[nodiscard]] ScopedFd unix_listen(const std::string& path, int backlog = 16);

/// Connects to the AF_UNIX stream socket at `path`; throws on failure.
[[nodiscard]] ScopedFd unix_connect(const std::string& path);

/// Writes all of `data`, retrying short writes, with MSG_NOSIGNAL. Returns
/// false on any error (the peer is gone; callers treat it as a disconnect).
[[nodiscard]] bool send_all(int fd, const char* data, std::size_t size);

/// send_all of `line` plus the terminating '\n'.
[[nodiscard]] bool send_line(int fd, const std::string& line);

/// Reassembles '\n'-terminated lines from arbitrary read fragments. A line
/// may hold at most kMaxLineBytes (without its '\n'): a longer one is never
/// returned, and overlong() tells the reader to give up on the stream, so
/// no peer can grow a reader without limit.
class LineBuffer {
 public:
  /// Longest line a reader accepts, shared by the daemon and its clients.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  void feed(const char* data, std::size_t size) { buf_.append(data, size); }

  /// Extracts the next complete line (without its '\n') into `line`.
  /// Returns false when no complete line is buffered yet, or when the next
  /// line is overlong().
  bool next_line(std::string& line);

  /// True once the next line, complete or not, exceeds kMaxLineBytes.
  [[nodiscard]] bool overlong() const;

 private:
  std::string buf_;
  std::size_t head_ = 0;  ///< first unconsumed byte of buf_
};

}  // namespace iw
