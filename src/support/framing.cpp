#include "support/framing.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace iw {
namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long (max " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes): " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

ScopedFd& ScopedFd::operator=(ScopedFd&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

void ScopedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

int ScopedFd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

ScopedFd unix_listen(const std::string& path, int backlog) {
  const sockaddr_un addr = unix_address(path);
  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket");
  // A previous daemon's socket file would make bind fail with EADDRINUSE;
  // a *live* daemon still holding it is indistinguishable here, so the
  // unlink is the documented "one daemon per path" contract, not a lock.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    fail_errno("bind " + path);
  if (::listen(fd.get(), backlog) != 0) fail_errno("listen " + path);
  return fd;
}

ScopedFd unix_connect(const std::string& path) {
  const sockaddr_un addr = unix_address(path);
  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0)
    fail_errno("connect " + path);
  return fd;
}

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_line(int fd, const std::string& line) {
  std::string framed = line;
  framed += '\n';
  return send_all(fd, framed.data(), framed.size());
}

bool LineBuffer::next_line(std::string& line) {
  const std::size_t pos = buf_.find('\n', head_);
  if (pos == std::string::npos || pos - head_ > kMaxLineBytes) return false;
  line.assign(buf_, head_, pos - head_);
  head_ = pos + 1;
  // Compacting only past half keeps the moved bytes below the consumed
  // ones, so draining k lines costs O(their bytes), not O(k x buffer).
  if (head_ > buf_.size() / 2) {
    buf_.erase(0, head_);
    head_ = 0;
  }
  return true;
}

bool LineBuffer::overlong() const {
  // The scan runs only once the buffer could hold an overlong line; npos
  // (no '\n' yet) counts as overlong too.
  return buf_.size() - head_ > kMaxLineBytes &&
         buf_.find('\n', head_) - head_ > kMaxLineBytes;
}

}  // namespace iw
