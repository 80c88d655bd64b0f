// ControlEndpoint — line-oriented local control socket (serve layer;
// docs/ARCHITECTURE.md §7).
//
// dtm_serve listens on an AF_UNIX stream socket so a live service can be
// observed and steered without signals or restarts:
//
//   $ echo stats | nc -U /tmp/dtm.sock        # one JSON metrics snapshot
//   $ echo 'fault drop=0.05,jitter=4' | nc -U /tmp/dtm.sock
//   $ echo 'fault none' | nc -U /tmp/dtm.sock # calm the chaos back down
//   $ echo drain | nc -U /tmp/dtm.sock        # graceful drain
//
// The endpoint is deliberately dumb: non-blocking accept/read/write, one
// command per line, one response line per command, no threads. The serve
// loop calls poll() between pump() slices, so command handling interleaves
// with simulation at window granularity and never races engine state.
// Command *semantics* live in the caller's handler (tools/dtm_serve.cpp);
// this class only moves bytes.
//
// No peer can grow memory without bound or stall the serve loop: an
// unterminated line longer than kMaxLine, or a reply backlog larger than
// kMaxPending (a peer that stopped reading), gets the connection closed;
// connections past kMaxConns are refused with one error line. Replies the
// socket cannot take at once are finished on later polls.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace dtm {

class ControlEndpoint {
 public:
  /// Bytes of one command line.
  static constexpr std::size_t kMaxLine = 4096;
  /// Connections open at once.
  static constexpr std::size_t kMaxConns = 16;
  /// Reply bytes per connection the socket has not taken yet.
  static constexpr std::size_t kMaxPending = std::size_t{1} << 20;

  /// Binds and listens on `path` (an existing socket file there is
  /// replaced). Throws CheckError on any socket failure.
  explicit ControlEndpoint(std::string path);
  ~ControlEndpoint();

  ControlEndpoint(const ControlEndpoint&) = delete;
  ControlEndpoint& operator=(const ControlEndpoint&) = delete;

  /// Maps one command line (trimmed, no newline) to one response string
  /// (a newline is appended on the wire).
  using Handler = std::function<std::string(const std::string&)>;

  /// Accepts pending connections, processes every complete line buffered
  /// so far and sends what the sockets take of the replies; never blocks.
  /// Returns the number of commands handled.
  int poll(const Handler& handler);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t open_connections() const { return conns_.size(); }
  /// Unconsumed input bytes across all connections (bounded by
  /// kMaxConns x (kMaxLine + one read chunk)).
  [[nodiscard]] std::size_t buffered_bytes() const;

 private:
  struct Conn {
    int fd = -1;
    std::string in;     ///< received bytes not yet dispatched as lines
    std::string out;    ///< reply bytes not yet taken by the socket
    bool done = false;  ///< no more reading: close once `out` is sent
  };

  /// Reads what `c` has buffered (a bounded amount per poll) and
  /// dispatches its complete lines. Returns the commands handled.
  int receive(Conn& c, const Handler& handler);
  /// Sends as much of `c.out` as the socket takes. False when the
  /// connection must be dropped (write error or backlog over the cap).
  static bool flush(Conn& c);

  std::string path_;
  int listen_fd_ = -1;
  std::vector<Conn> conns_;
};

}  // namespace dtm
