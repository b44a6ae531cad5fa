// Hand-rolled HTTP/1.1 over POSIX sockets — the wire layer of ppg-serve.
// Zero dependencies, same discipline as the rest of the stack: a strict
// bounded parser for exactly the subset the service needs (verb + target +
// headers + Content-Length body), pointed errors for everything else.
// Transfer-Encoding, multipart, and TLS are deliberately out of scope; the
// daemon binds loopback and speaks plain HTTP to local clients and
// reverse proxies.
//
// The reader is defensive by construction: header bytes and body bytes are
// capped *before* buffering (a peer cannot make the server allocate more
// than the configured limits), and every malformed input maps to the HTTP
// status the connection should die with (http_error). JSON bodies get a
// second bounded parse at the app layer (util/json parse_limits).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ppg {

/// Thrown by the connection reader when the peer sent something the server
/// must refuse; `status` is the HTTP status to answer with before closing
/// (400 malformed, 413 oversized body, 431 oversized headers, 501
/// unimplemented transfer encoding, 505 unknown HTTP version).
class http_error : public std::runtime_error {
 public:
  http_error(int status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  [[nodiscard]] int status() const { return status_; }

 private:
  int status_;
};

/// One parsed request. Header names are stored lowercased (HTTP header
/// names are case-insensitive); values are trimmed of surrounding spaces.
struct http_request {
  std::string method;  ///< verb as sent, e.g. "GET"
  std::string target;  ///< path without the query string, e.g. "/healthz"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; nullptr when absent.
  [[nodiscard]] const std::string* header(std::string_view name) const;

  /// Whether the connection should stay open after the response: HTTP/1.1
  /// defaults to keep-alive unless the client sent "Connection: close".
  [[nodiscard]] bool keep_alive() const;
};

struct http_response {
  int status = 200;
  std::string body;
  std::string content_type = "application/json";
};

/// Canonical reason phrase for the statuses this server emits; "Status"
/// for anything unknown (the code is what matters on the wire).
[[nodiscard]] const char* http_status_reason(int status);

/// Per-connection read bounds, enforced before buffering, and the
/// connection deadlines. A read deadline of 0 disables the timeout; with
/// one set, a connection idle between requests past the deadline is
/// *reaped* (closed silently — the keep-alive analogue of an idle-timeout
/// reaper, so a slowloris peer cannot pin a worker), and a peer that
/// stalls mid-request or mid-body is answered 408 and dropped. The write
/// deadline bounds how long a response write may block on a peer that
/// stopped reading.
struct http_limits {
  std::size_t max_header_bytes = 16 * 1024;
  std::size_t max_body_bytes = 4u * 1024 * 1024;
  int read_timeout_ms = 0;   ///< per-recv deadline; 0 = block forever
  int write_timeout_ms = 0;  ///< per-send deadline; 0 = block forever
};

/// One accepted connection: owns the fd, buffers reads across keep-alive
/// requests (bytes of a pipelined next request are kept, not dropped), and
/// closes on destruction.
class http_connection {
 public:
  http_connection(int fd, http_limits limits) : fd_(fd), limits_(limits) {}
  ~http_connection();

  http_connection(const http_connection&) = delete;
  http_connection& operator=(const http_connection&) = delete;

  /// Reads one request. Returns nullopt on clean EOF (peer closed between
  /// requests — the keep-alive loop's exit) and on an *idle* read-deadline
  /// expiry (nothing buffered: the reaper case); throws http_error when
  /// the peer sent something refusable mid-request, including http_error
  /// 408 when the deadline expires with a partial request buffered.
  [[nodiscard]] std::optional<http_request> read_request();

  /// Writes a response; returns false when the peer is gone (EPIPE etc.)
  /// or stalled past the write deadline, which callers treat as
  /// end-of-connection, not an error.
  bool write_response(const http_response& response, bool keep_alive);

 private:
  enum class fill_status { data, eof, timed_out };

  /// recv() more bytes into buffer_, honoring the read deadline.
  fill_status fill();

  int fd_;
  http_limits limits_;
  std::string buffer_;
};

/// A listening TCP socket on 127.0.0.1:`port` (0 = kernel-assigned
/// ephemeral port, reported by port() — how CI starts the daemon without a
/// port race). Loopback-only by design: fronting proxies terminate
/// external traffic.
class tcp_listener {
 public:
  explicit tcp_listener(std::uint16_t port);
  ~tcp_listener();

  tcp_listener(const tcp_listener&) = delete;
  tcp_listener& operator=(const tcp_listener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks for the next connection; returns the connected fd, or -1 once
  /// shut_down() has been called (the accept loop's exit).
  [[nodiscard]] int accept_connection();

  /// Unblocks accept_connection() from another thread and stops listening.
  void shut_down();

 private:
  /// Atomic: shut_down() races with the acceptor thread's reads by design
  /// (that is how it unblocks a blocking accept()).
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace ppg
