// Session table of the ppg-serve daemon: each session owns one recipe +
// engine pair, a lifecycle state, and its accounting counters. The table
// is the only shared index; per-session exclusivity is a try_lock on the
// session's own mutex (an engine mid-advance answers 409, never blocks a
// connection thread), and the counters are atomics so /stats reads them
// without touching any session lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ppg/pp/checkpoint.hpp"
#include "ppg/serve/kernel_cache.hpp"

namespace ppg {

/// Lifecycle of a session. created → (advancing ⇄ idle)* → destroyed;
/// `destroyed` is only ever observed by a request that raced a DELETE.
enum class session_state : std::uint8_t { created, advancing, idle, destroyed };

[[nodiscard]] const char* session_state_name(session_state state);

/// One live simulation session. Engines are single-threaded objects: every
/// touch of `engine` (advance, census, checkpoint) happens under `mu`,
/// acquired with try_lock so concurrent requests on one session fail fast
/// with 409 instead of queuing.
struct serve_session {
  std::string id;
  sim_recipe recipe;
  engine_kind kind;
  std::uint64_t seed = 0;
  std::uint64_t fingerprint = 0;  ///< recipe_fingerprint (session identity)
  bool kernel_cache_hit = false;  ///< kernel came warm from the cache
  bool restored = false;          ///< born from POST /sessions/restore
  bool recovered = false;         ///< resurrected from the durable store
  std::unique_ptr<sim_engine> engine;

  // Durability bookkeeping (DESIGN.md §13). The spill cursor is only
  // touched under `mu` (during advance / drain); the flags and `generation`
  // are atomics so /stats reads them lock-free.
  std::atomic<bool> durable{false};  ///< spills to the store (off = no store)
  std::atomic<bool> degraded{false};  ///< a spill failed; durability is off
  std::atomic<std::uint64_t> generation{0};  ///< last spilled generation
  std::uint64_t chunks_since_spill = 0;      ///< advance chunks not yet spilled

  std::mutex mu;  ///< engine exclusivity; try_lock → 409 when contended
  std::atomic<session_state> state{session_state::created};
  std::atomic<std::uint64_t> advances{0};  ///< completed advance requests
  std::atomic<std::uint64_t> slices{0};    ///< scheduler slices executed
  /// engine->interactions() as of the last completed advance (or birth);
  /// lets /stats report per-session totals without touching any session
  /// lock (at most one in-flight advance stale).
  std::atomic<std::uint64_t> interactions{0};

  serve_session(std::string session_id, sim_recipe session_recipe,
                engine_kind session_kind, std::uint64_t rng_seed)
      : id(std::move(session_id)),
        recipe(std::move(session_recipe)),
        kind(session_kind),
        seed(rng_seed) {}
};

/// The id → session index. Sessions are held by shared_ptr so a request
/// that resolved an id keeps its session alive even if a concurrent DELETE
/// drops it from the table (the request then observes state == destroyed).
class session_table {
 public:
  explicit session_table(kernel_cache& kernels, std::size_t max_sessions)
      : kernels_(&kernels), max_sessions_(max_sessions) {}

  /// Creates a session from a parsed recipe document: builds the recipe,
  /// pulls (or compiles) the shared kernel of a kernel protocol, and
  /// seeds the engine. Throws invariant_error on a malformed recipe and
  /// http_error(503) at the session cap.
  std::shared_ptr<serve_session> create(const json& recipe_doc,
                                        engine_kind kind, std::uint64_t seed);

  /// Creates a session from a checkpoint document (POST /sessions/restore):
  /// same kernel-cache path, engine state restored bit-exactly.
  std::shared_ptr<serve_session> restore(const json& checkpoint);

  /// Resurrects a session from the durable store under its *original* id
  /// (clients resume transparently after a daemon restart): the restore()
  /// path plus a forced id. Throws invariant_error when the id is already
  /// taken or malformed; future create() ids never collide with adopted
  /// ones. `seed` is the creation seed recorded in the spill envelope.
  std::shared_ptr<serve_session> adopt(const std::string& id,
                                       std::uint64_t seed,
                                       const json& checkpoint);

  /// The session for `id`, or nullptr when unknown (or already destroyed).
  [[nodiscard]] std::shared_ptr<serve_session> find(const std::string& id);

  /// Removes `id` from the table and marks it destroyed; false when the id
  /// is unknown (including a second DELETE of the same id).
  bool destroy(const std::string& id);

  /// Stable-ordered snapshot of the live sessions (for /stats).
  [[nodiscard]] std::vector<std::shared_ptr<serve_session>> snapshot() const;

  [[nodiscard]] std::size_t size() const;

 private:
  /// Builds a session from a checkpoint document (shared by restore and
  /// adopt); the caller inserts it.
  std::shared_ptr<serve_session> build_restored(const json& checkpoint);

  /// Inserts with the next generated id ("s<n>") — or, when `forced_id` is
  /// nonempty, under that id (bumping the generator past any "s<n>" form so
  /// later creates cannot collide).
  std::shared_ptr<serve_session> insert(std::shared_ptr<serve_session> session,
                                        const std::string& forced_id = "");

  kernel_cache* kernels_;
  std::size_t max_sessions_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<std::shared_ptr<serve_session>> sessions_;  ///< insertion order
};

}  // namespace ppg
