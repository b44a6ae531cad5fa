// The ppg-serve application and its HTTP front end.
//
// serve_app is the transport-free core: a thread-safe handle(request) →
// response router over the session table, kernel cache, and fair
// scheduler. Tests drive it directly (no sockets, no timing); the daemon
// and the socket smoke test wrap it in http_server, which owns the
// listener, an acceptor thread, and a small pool of connection threads
// running keep-alive loops.
//
// Wire protocol (all bodies JSON; see DESIGN.md §10 and README):
//   POST   /sessions            {"recipe": {...}, "engine": "...",
//                                "seed": u64?}      → 201 {id, ...}
//   POST   /sessions/restore    checkpoint document → 201 {id, ...}
//   POST   /sessions/{id}/advance  {"interactions": u64 >= 1}
//   GET    /sessions/{id}          session info
//   GET    /sessions/{id}/census   current counts
//   GET    /sessions/{id}/checkpoint  byte-identical to save_checkpoint
//   DELETE /sessions/{id}          destroy (second delete → 404)
//   GET    /healthz, GET /stats
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ppg/serve/http.hpp"
#include "ppg/serve/kernel_cache.hpp"
#include "ppg/serve/scheduler.hpp"
#include "ppg/serve/session.hpp"
#include "ppg/serve/store.hpp"

namespace ppg {

struct serve_config {
  std::uint16_t port = 0;       ///< 0 = kernel-assigned ephemeral port
  std::size_t threads = 0;      ///< scheduler workers; 0 = hardware conc.
  std::size_t connection_threads = 4;
  std::uint64_t chunk = std::uint64_t{1} << 16;  ///< scheduler slice bound
  std::size_t max_sessions = 1024;
  std::size_t max_body_bytes = 4u * 1024 * 1024;

  // Durability (DESIGN.md §13). With `store_dir` set, every session is
  // spilled to disk — at creation, every `spill_every_chunks` scheduler
  // chunks during an advance, and on every advancing → idle transition —
  // and the daemon restores all spilled sessions under their original ids
  // on boot. Empty = the pre-§13 in-memory-only behavior.
  std::string store_dir;
  std::uint64_t spill_every_chunks = 16;  ///< 0 = spill only on idle/drain

  // Connection deadlines (0 = none): an idle keep-alive connection past
  // the read deadline is reaped; a peer stalled mid-request gets 408; a
  // peer that stops reading its response is dropped after the write
  // deadline.
  int read_timeout_ms = 30'000;
  int write_timeout_ms = 30'000;
};

/// The routing core. handle() is safe to call from any number of threads
/// concurrently; per-session exclusivity is enforced with try_lock (a busy
/// session answers 409 immediately).
class serve_app {
 public:
  /// `store` overrides the store built from config.store_dir (injection
  /// point for tests); with both empty/null the app is non-durable. When a
  /// store is present the constructor scans it and restores every valid
  /// spill under its original session id; corrupt spills are quarantined,
  /// never fatal.
  explicit serve_app(const serve_config& config = {},
                     std::unique_ptr<session_store> store = nullptr);

  [[nodiscard]] http_response handle(const http_request& request);

  /// Graceful-shutdown spill: waits for each session's in-flight advance
  /// (blocking lock) and spills its latest state. Call after the HTTP
  /// front end has stopped accepting.
  void drain();

  /// Forced-shutdown spill: spills every session that is not mid-advance
  /// (try_lock, busy sessions skipped — their last periodic spill stands).
  /// Safe to call concurrently with drain().
  void spill_all_unlocked_sessions();

  [[nodiscard]] const serve_config& config() const { return config_; }
  [[nodiscard]] session_table& sessions() { return sessions_; }
  [[nodiscard]] kernel_cache& kernels() { return kernels_; }
  [[nodiscard]] fair_scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] session_store* store() { return store_.get(); }

 private:
  [[nodiscard]] http_response route(const http_request& request);
  [[nodiscard]] json parse_body(const http_request& request) const;
  [[nodiscard]] std::shared_ptr<serve_session> require_session(
      const std::string& id);

  [[nodiscard]] http_response create_session(const http_request& request);
  [[nodiscard]] http_response restore_session(const http_request& request);
  [[nodiscard]] http_response advance_session(serve_session& session,
                                              const http_request& request);
  [[nodiscard]] http_response session_info(const serve_session& session);
  [[nodiscard]] http_response session_census(serve_session& session);
  [[nodiscard]] http_response session_checkpoint(serve_session& session);
  [[nodiscard]] http_response destroy_session(const std::string& id);
  [[nodiscard]] http_response stats();

  /// Recovers every valid spill from the store (constructor path).
  void recover_from_store();
  /// Spills `session`'s current state; caller holds session.mu. A failed
  /// spill degrades the session to non-durable (with a warning) instead of
  /// failing the request — the daemon outlives its disk.
  void spill_locked(serve_session& session);
  /// Marks a fresh session durable and writes its generation-1 spill.
  void make_durable(serve_session& session);

  serve_config config_;
  kernel_cache kernels_;
  session_table sessions_;
  fair_scheduler scheduler_;
  std::unique_ptr<session_store> store_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> recovered_{0};  ///< sessions restored at boot
  std::atomic<std::uint64_t> degraded_{0};   ///< sessions that lost durability
};

/// The socket front end: accepts connections on 127.0.0.1:port and feeds
/// keep-alive request loops to `connection_threads` workers. start()
/// returns once the listener is bound (port() is then valid); stop() is
/// idempotent and joins every thread.
class http_server {
 public:
  http_server(serve_app& app, const serve_config& config);
  ~http_server();

  http_server(const http_server&) = delete;
  http_server& operator=(const http_server&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::uint16_t port() const { return listener_->port(); }

 private:
  void accept_loop();
  void connection_loop();
  void serve_connection(int fd);

  serve_app* app_;
  serve_config config_;
  std::unique_ptr<tcp_listener> listener_;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable pending_ready_;
  std::deque<int> pending_;    ///< accepted fds awaiting a worker
  std::set<int> open_;         ///< fds currently inside serve_connection
  bool stopping_ = false;
};

}  // namespace ppg
