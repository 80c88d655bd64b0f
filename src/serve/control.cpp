#include "serve/control.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/check.hpp"

namespace dtm {

namespace {

/// Reads per connection per poll: a peer that never stops writing cannot
/// keep poll() from returning to the serve loop.
constexpr int kMaxReadsPerPoll = 16;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DTM_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "control socket: O_NONBLOCK failed (" << std::strerror(errno)
                                                    << ")");
}

}  // namespace

ControlEndpoint::ControlEndpoint(std::string path) : path_(std::move(path)) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DTM_REQUIRE(!path_.empty() && path_.size() < sizeof(addr.sun_path),
              "control socket path '" << path_ << "' empty or too long (max "
                                      << sizeof(addr.sun_path) - 1 << ")");
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DTM_REQUIRE(listen_fd_ >= 0,
              "control socket: socket() failed (" << std::strerror(errno)
                                                  << ")");
  ::unlink(path_.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw CheckError("control socket: bind('" + path_ + "') failed (" +
                     std::strerror(err) + ")");
  }
  if (::listen(listen_fd_, 8) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path_.c_str());
    throw CheckError("control socket: listen failed (" +
                     std::string(std::strerror(err)) + ")");
  }
  set_nonblocking(listen_fd_);
}

ControlEndpoint::~ControlEndpoint() {
  for (const Conn& c : conns_) ::close(c.fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }
}

std::size_t ControlEndpoint::buffered_bytes() const {
  std::size_t n = 0;
  for (const Conn& c : conns_) n += c.in.size();
  return n;
}

int ControlEndpoint::receive(Conn& c, const Handler& handler) {
  int handled = 0;
  const auto dispatch = [&](std::string line) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) return;
    c.out += handler(line);
    c.out.push_back('\n');
    ++handled;
  };
  char chunk[4096];
  for (int reads = 0; reads < kMaxReadsPerPoll && !c.done; ++reads) {
    const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
    if (n < 0) {
      // EAGAIN: drained for now. Any other error ends the connection.
      c.done = errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
      break;
    }
    if (n == 0) {
      // Peer finished sending: a trailing unterminated line counts as a
      // final command (echo without -n, printf, etc.).
      c.done = true;
      dispatch(std::move(c.in));
      c.in.clear();
      break;
    }
    c.in.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t eol; (eol = c.in.find('\n', start)) != std::string::npos;
         start = eol + 1)
      dispatch(c.in.substr(start, eol - start));
    c.in.erase(0, start);
    if (c.in.size() > kMaxLine) {
      c.out += "err command line exceeds " + std::to_string(kMaxLine) +
               " bytes\n";
      c.in.clear();
      c.done = true;
    }
  }
  return handled;
}

bool ControlEndpoint::flush(Conn& c) {
  while (!c.out.empty()) {
    // MSG_NOSIGNAL: a peer gone mid-reply is an error here, not a SIGPIPE
    // that kills the service.
    const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // next poll
      return false;
    }
    c.out.erase(0, static_cast<std::size_t>(n));
  }
  return c.out.size() <= kMaxPending;
}

int ControlEndpoint::poll(const Handler& handler) {
  // Accept everything pending; refuse connections over the cap.
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN / EWOULDBLOCK: nothing waiting
    if (conns_.size() >= kMaxConns) {
      const std::string refusal = "err too many control connections (max " +
                                  std::to_string(kMaxConns) + ")\n";
      (void)!::send(fd, refusal.data(), refusal.size(),
                    MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    conns_.push_back({fd, {}, {}, false});
  }

  int handled = 0;
  for (std::size_t i = 0; i < conns_.size();) {
    Conn& c = conns_[i];
    handled += receive(c, handler);
    const bool keep = flush(c) && !(c.done && c.out.empty());
    if (keep) {
      ++i;
    } else {
      ::close(c.fd);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return handled;
}

}  // namespace dtm
