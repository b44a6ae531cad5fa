// HTTP/1.1 client for ppg-serve, built for a daemon that is allowed to
// die. Three layers:
//
//   http_client   — one TCP connection, blocking request/response with a
//                   2 s connect and a 10 s per-request deadline and a
//                   64 MiB response cap; throws client_error on any
//                   transport failure (carrying whether request bytes had
//                   already reached the wire).
//   serve_client  — reconnect + up to 5 retries with exponential backoff
//                   (50 ms doubling to a 2 s cap) and seeded jitter;
//                   non-idempotent requests are only retried when the
//                   failed attempt never hit the wire.
//   session_handle — a durable simulation session: advance() reconciles
//                   interaction counts after a transport failure and, when
//                   the daemon lost the session entirely (404), restores
//                   it from the last fetched checkpoint and re-drives the
//                   missing interactions.
//
// See DESIGN.md §13 and examples/serve_loadgen.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "ppg/util/json.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {

struct client_config {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t jitter_seed = 1;  ///< backoff jitter (deterministic tests)
};

struct client_response {
  int status = 0;
  std::string body;
};

/// A transport failure (connect, deadline, torn connection — never an HTTP
/// status). sent() distinguishes "safe to blindly retry" (no request byte
/// reached the wire) from "the server may have executed this".
class client_error : public std::runtime_error {
 public:
  client_error(const std::string& what, bool request_sent)
      : std::runtime_error(what), sent_(request_sent) {}
  [[nodiscard]] bool sent() const { return sent_; }

 private:
  bool sent_;
};

/// Writes all of `bytes` to the connected stream socket `fd` within
/// `timeout_ms`, or throws client_error("request deadline exceeded while
/// writing") once the peer has not taken them in time (client_error on a
/// failed send too; sent() tells whether any byte went out). It never
/// blocks in send(), so a peer that stops reading cannot hold it past the
/// deadline. The fd stays open. http_client::request sends through it.
void send_within(int fd, const std::string& bytes, int timeout_ms);

/// One connection. Not thread-safe; serve_client owns at most one.
class http_client {
 public:
  /// Connects (bounded by the connect deadline); throws client_error.
  explicit http_client(const client_config& config);
  ~http_client();

  http_client(const http_client&) = delete;
  http_client& operator=(const http_client&) = delete;

  /// One request/response exchange under the request deadline.
  [[nodiscard]] client_response request(const std::string& method,
                                        const std::string& target,
                                        const std::string& body);

  /// False once the server answered Connection: close (or the fd died);
  /// the owner should discard this client and connect a fresh one.
  [[nodiscard]] bool alive() const { return fd_ >= 0; }

 private:
  void close_fd();

  client_config config_;
  int fd_ = -1;
  std::string buffer_;  ///< bytes past the last response (pipelining slack)
};

struct client_stats {
  std::uint64_t requests = 0;    ///< attempts put on the wire
  std::uint64_t retries = 0;     ///< attempts after a transport failure
  std::uint64_t reconnects = 0;  ///< fresh connections established
};

/// The retrying facade. HTTP error statuses are returned, not thrown —
/// only transport failures that exhaust the retry budget (or cannot be
/// safely retried) surface as client_error.
class serve_client {
 public:
  explicit serve_client(const client_config& config);

  /// `idempotent` guards the dangerous window: when false and a failed
  /// attempt may have reached the server (client_error::sent()), the error
  /// propagates instead of blindly re-executing.
  [[nodiscard]] client_response request(const std::string& method,
                                        const std::string& target,
                                        const std::string& body = "",
                                        bool idempotent = true);

  [[nodiscard]] const client_stats& stats() const { return stats_; }

 private:
  client_config config_;
  std::unique_ptr<http_client> connection_;
  rng jitter_;
  client_stats stats_;
};

/// A session that survives daemon restarts. Keeps the client-side target
/// interaction count and the last fetched checkpoint; advance() drives the
/// server back to the target through any number of crashes.
class session_handle {
 public:
  /// POST /sessions + initial checkpoint fetch.
  static session_handle create(serve_client& client, const json& recipe,
                               const std::string& engine, std::uint64_t seed);

  /// Advances by `interactions`, transparently recovering from transport
  /// failures (reconcile via GET /sessions/{id}) and from session loss
  /// (restore-by-checkpoint, which may assign a fresh id). Throws
  /// client_error when the daemon stays unreachable past the retry budget.
  void advance(std::uint64_t interactions);

  /// Refreshes the recovery checkpoint (GET /sessions/{id}/checkpoint);
  /// everything advanced before this point is no longer at risk.
  void refresh_checkpoint();

  [[nodiscard]] const std::string& id() const { return id_; }
  /// Interactions confirmed on the server side.
  [[nodiscard]] std::uint64_t interactions() const { return interactions_; }
  /// Times this handle restored its session from a checkpoint.
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

 private:
  session_handle(serve_client& client, std::string id,
                 std::uint64_t interactions)
      : client_(&client), id_(std::move(id)), interactions_(interactions) {}

  /// GET /sessions/{id} → confirmed interaction count; restores from the
  /// checkpoint on 404. Returns the server-side count.
  std::uint64_t reconcile();
  /// POST /sessions/restore with the stored checkpoint; adopts the new id.
  void recover();

  serve_client* client_;
  std::string id_;
  std::uint64_t interactions_ = 0;
  json checkpoint_;  ///< last fetched checkpoint document
  std::uint64_t recoveries_ = 0;
};

}  // namespace ppg
