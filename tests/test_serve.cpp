// Tests for the ppg-serve subsystem: the routing core (serve_app driven
// directly, no sockets), the fairness/bit-exactness contract of interleaved
// sessions, the kernel cache, the fair scheduler, a raw-socket smoke test of
// the HTTP front end, its read and write loops against misbehaving peers,
// the client's send deadline against a peer that never reads, and its
// session recovery over loopback.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ppg/pp/checkpoint.hpp"
#include "ppg/serve/client.hpp"
#include "ppg/serve/server.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

const char* rumor_recipe() {
  return R"({"protocol": {"name": "rumor", "params": {}},
    "initial_counts": [280, 20], "sampling": "distinct"})";
}

const char* majority_recipe() {
  return R"({"protocol": {"name": "approximate-majority", "params": {}},
    "initial_counts": [600, 400, 0], "sampling": "distinct"})";
}

const char* hawk_dove_recipe() {
  return R"({"protocol": {"name": "matrix-game",
                          "params": {"game": {"name": "hawk-dove",
                                              "value": 2.0, "cost": 3.0},
                                     "rule": {"name": "logit",
                                              "temperature": 0.4},
                                     "discipline": "two_way"}},
    "initial_counts": [160, 140], "sampling": "distinct"})";
}

http_request make_request(const std::string& method, const std::string& target,
                          const std::string& body = "") {
  http_request request;
  request.method = method;
  request.target = target;
  request.body = body;
  return request;
}

/// POST /sessions body for (recipe, engine, seed).
std::string create_body(const char* recipe_text, const char* engine,
                        std::uint64_t seed) {
  json body = json::object();
  body["recipe"] = json::parse(recipe_text);
  body["engine"] = engine;
  body["seed"] = seed;
  return body.dump_string(false);
}

json handle_json(serve_app& app, const http_request& request,
                 int expected_status) {
  const http_response response = app.handle(request);
  EXPECT_EQ(response.status, expected_status)
      << request.method << " " << request.target << " -> " << response.body;
  return json::parse(response.body);
}

// --- fair scheduler --------------------------------------------------------

TEST(FairScheduler, SlicesBudgetAndMatchesDirectRun) {
  const sim_recipe recipe = sim_recipe::from_json(json::parse(rumor_recipe()));
  fair_scheduler scheduler(/*threads=*/2, /*chunk=*/1000);

  rng gen_sched(42);
  rng gen_direct(42);
  const auto scheduled = recipe.spec().make_engine(engine_kind::multibatch,
                                                   gen_sched);
  const auto direct = recipe.spec().make_engine(engine_kind::multibatch,
                                                gen_direct);

  // 4500 interactions in chunks of 1000 -> 5 slices, and the direct twin
  // replays the identical run() schedule, so the states must match bitwise.
  EXPECT_EQ(scheduler.advance(*scheduled, 4500), 5u);
  for (std::uint64_t remaining = 4500; remaining > 0;) {
    const std::uint64_t slice = std::min<std::uint64_t>(1000, remaining);
    direct->run(slice);
    remaining -= slice;
  }
  EXPECT_EQ(scheduled->save_state(), direct->save_state());
  EXPECT_EQ(scheduler.advance(*scheduled, 1), 1u);
  EXPECT_EQ(scheduler.advance(*scheduled, 0), 0u);
}

TEST(FairScheduler, RejectsZeroChunk) {
  EXPECT_THROW(fair_scheduler(1, 0), invariant_error);
}

// --- kernel cache ----------------------------------------------------------

TEST(KernelCache, CompilesOnceAndCountsHits) {
  const sim_recipe recipe = sim_recipe::from_json(json::parse(rumor_recipe()));
  kernel_cache cache;
  EXPECT_EQ(cache.size(), 0u);

  const auto first = cache.get_or_compile(99, recipe.proto());
  EXPECT_FALSE(first.hit);
  const auto second = cache.get_or_compile(99, recipe.proto());
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.kernel.get(), second.kernel.get());  // shared, not copied
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  const auto other = cache.get_or_compile(100, recipe.proto());
  EXPECT_FALSE(other.hit);
  EXPECT_EQ(cache.size(), 2u);
}

// --- session lifecycle and error paths -------------------------------------

TEST(ServeApp, HealthzAndEmptyStats) {
  serve_app app;
  const json health = handle_json(app, make_request("GET", "/healthz"), 200);
  EXPECT_EQ(health.find("status")->as_string(), "ok");
  EXPECT_EQ(health.find("sessions")->as_uint64(), 0u);

  const json stats = handle_json(app, make_request("GET", "/stats"), 200);
  EXPECT_EQ(stats.find("sessions")->size(), 0u);
  EXPECT_EQ(stats.find("kernel_cache")->find("entries")->as_uint64(), 0u);
}

TEST(ServeApp, SessionLifecycle) {
  serve_app app;
  const json created = handle_json(
      app,
      make_request("POST", "/sessions",
                   create_body(rumor_recipe(), "census", 7)),
      201);
  const std::string id = created.find("id")->as_string();
  EXPECT_EQ(created.find("state")->as_string(), "created");
  EXPECT_EQ(created.find("engine")->as_string(), "census");
  EXPECT_FALSE(created.find("kernel_cache_hit")->as_bool());
  EXPECT_EQ(created.find("population")->as_uint64(), 300u);

  const json advanced = handle_json(
      app,
      make_request("POST", "/sessions/" + id + "/advance",
                   R"({"interactions": 5000})"),
      200);
  EXPECT_EQ(advanced.find("interactions")->as_uint64(), 5000u);
  EXPECT_GE(advanced.find("slices")->as_uint64(), 1u);

  const json info =
      handle_json(app, make_request("GET", "/sessions/" + id), 200);
  EXPECT_EQ(info.find("state")->as_string(), "idle");
  EXPECT_EQ(info.find("advances")->as_uint64(), 1u);
  EXPECT_EQ(info.find("seed")->as_uint64(), 7u);

  const json census =
      handle_json(app, make_request("GET", "/sessions/" + id + "/census"), 200);
  EXPECT_EQ(census.find("population")->as_uint64(), 300u);
  std::uint64_t total = 0;
  for (const auto& count : census.find("counts")->items()) {
    total += count.as_uint64();
  }
  EXPECT_EQ(total, 300u);

  const json destroyed =
      handle_json(app, make_request("DELETE", "/sessions/" + id), 200);
  EXPECT_TRUE(destroyed.find("destroyed")->as_bool());
  // Double destroy and use-after-destroy are 404s, not crashes.
  (void)handle_json(app, make_request("DELETE", "/sessions/" + id), 404);
  (void)handle_json(app, make_request("GET", "/sessions/" + id + "/census"),
                    404);
}

TEST(ServeApp, ErrorPaths) {
  serve_app app;
  // Unknown routes and ids.
  (void)handle_json(app, make_request("GET", "/nope"), 404);
  (void)handle_json(app, make_request("GET", "/sessions/s999"), 404);
  (void)handle_json(app,
                    make_request("POST", "/sessions/s999/advance",
                                 R"({"interactions": 1})"),
                    404);
  (void)handle_json(app, make_request("GET", "/sessions/s1/unknown-verb"), 404);

  // Method mismatches.
  (void)handle_json(app, make_request("POST", "/healthz"), 405);
  (void)handle_json(app, make_request("DELETE", "/stats"), 405);
  (void)handle_json(app, make_request("GET", "/sessions"), 405);

  // Malformed creation requests -> 400 with a pointed message.
  const json no_body = handle_json(app, make_request("POST", "/sessions"), 400);
  EXPECT_NE(no_body.find("error")->as_string().find("JSON body"),
            std::string::npos);
  (void)handle_json(app, make_request("POST", "/sessions", "{not json"), 400);
  (void)handle_json(
      app, make_request("POST", "/sessions", R"({"surprise": 1})"), 400);
  (void)handle_json(
      app,
      make_request(
          "POST", "/sessions",
          R"({"recipe": {"protocol": {"name": "no-such-protocol",
                                      "params": {}},
              "initial_counts": [10, 10], "sampling": "distinct"},
              "engine": "census"})"),
      400);
  (void)handle_json(
      app,
      make_request("POST", "/sessions",
                   create_body(rumor_recipe(), "warp-drive", 1)),
      400);
  // The batched engine was folded into multibatch; the 400 says so.
  const json folded = handle_json(
      app,
      make_request("POST", "/sessions",
                   create_body(rumor_recipe(), "batched", 1)),
      400);
  EXPECT_NE(folded.dump_string(false).find("folded into 'multibatch'"),
            std::string::npos)
      << folded.dump_string(false);

  // Advance validation.
  const std::string id =
      handle_json(app,
                  make_request("POST", "/sessions",
                               create_body(rumor_recipe(), "agent", 3)),
                  201)
          .find("id")
          ->as_string();
  (void)handle_json(app,
                    make_request("POST", "/sessions/" + id + "/advance",
                                 R"({"interactions": 0})"),
                    400);
  (void)handle_json(app,
                    make_request("POST", "/sessions/" + id + "/advance",
                                 R"({"interactions": 5, "turbo": true})"),
                    400);
}

TEST(ServeApp, BusySessionAnswers409) {
  serve_app app;
  const std::string id =
      handle_json(app,
                  make_request("POST", "/sessions",
                               create_body(rumor_recipe(), "census", 5)),
                  201)
          .find("id")
          ->as_string();
  auto session = app.sessions().find(id);
  ASSERT_NE(session, nullptr);
  {
    // Hold the session's engine lock, as an in-flight advance would.
    const std::lock_guard<std::mutex> busy(session->mu);
    (void)handle_json(app,
                      make_request("POST", "/sessions/" + id + "/advance",
                                   R"({"interactions": 1})"),
                      409);
    (void)handle_json(app, make_request("GET", "/sessions/" + id + "/census"),
                      409);
    (void)handle_json(
        app, make_request("GET", "/sessions/" + id + "/checkpoint"), 409);
  }
  // Lock released: the session serves again.
  (void)handle_json(app,
                    make_request("POST", "/sessions/" + id + "/advance",
                                 R"({"interactions": 1})"),
                    200);
}

TEST(ServeApp, SessionCapAnswers503) {
  serve_config config;
  config.max_sessions = 2;
  serve_app app(config);
  for (int i = 0; i < 2; ++i) {
    (void)handle_json(
        app,
        make_request("POST", "/sessions",
                     create_body(rumor_recipe(), "census",
                                 static_cast<std::uint64_t>(i))),
        201);
  }
  (void)handle_json(app,
                    make_request("POST", "/sessions",
                                 create_body(rumor_recipe(), "census", 9)),
                    503);
  // Destroying one frees a slot.
  (void)handle_json(app, make_request("DELETE", "/sessions/s1"), 200);
  (void)handle_json(app,
                    make_request("POST", "/sessions",
                                 create_body(rumor_recipe(), "census", 9)),
                    201);
}

TEST(ServeApp, BodyLimitsAreEnforced) {
  serve_config config;
  config.max_body_bytes = 256;
  serve_app app(config);
  const std::string oversized(300, ' ');
  (void)handle_json(app,
                    make_request("POST", "/sessions", "{" + oversized + "}"),
                    400);
  // Request bodies may nest 64 deep; 65 is refused before any routing.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + "1" + std::string(depth, ']');
  };
  const http_response deepest =
      app.handle(make_request("POST", "/sessions", nested(64)));
  EXPECT_EQ(deepest.body.find("nesting"), std::string::npos) << deepest.body;
  const http_response too_deep =
      app.handle(make_request("POST", "/sessions", nested(65)));
  EXPECT_EQ(too_deep.status, 400);
  EXPECT_NE(too_deep.body.find("nesting"), std::string::npos)
      << too_deep.body;
}

// --- warm kernel cache across sessions -------------------------------------

TEST(ServeApp, SessionsShareCompiledKernels) {
  serve_app app;
  const json first = handle_json(
      app,
      make_request("POST", "/sessions",
                   create_body(majority_recipe(), "multibatch", 1)),
      201);
  EXPECT_FALSE(first.find("kernel_cache_hit")->as_bool());

  // Different census and seed, same protocol -> warm hit.
  const json second = handle_json(
      app,
      make_request(
          "POST", "/sessions",
          create_body(
              R"({"protocol": {"name": "approximate-majority", "params": {}},
                  "initial_counts": [100, 50, 0], "sampling": "distinct"})",
              "census", 2)),
      201);
  EXPECT_TRUE(second.find("kernel_cache_hit")->as_bool());

  // A different protocol compiles its own kernel, and the agent engine on
  // that protocol draws from the same cached kernel.
  const json third = handle_json(
      app,
      make_request("POST", "/sessions",
                   create_body(rumor_recipe(), "multibatch", 3)),
      201);
  EXPECT_FALSE(third.find("kernel_cache_hit")->as_bool());
  const json fourth = handle_json(
      app,
      make_request("POST", "/sessions",
                   create_body(rumor_recipe(), "agent", 4)),
      201);
  EXPECT_TRUE(fourth.find("kernel_cache_hit")->as_bool());

  const json stats = handle_json(app, make_request("GET", "/stats"), 200);
  const json* cache = stats.find("kernel_cache");
  EXPECT_EQ(cache->find("entries")->as_uint64(), 2u);
  EXPECT_EQ(cache->find("hits")->as_uint64(), 2u);
  EXPECT_EQ(cache->find("misses")->as_uint64(), 2u);
}

// --- the tentpole contract: interleaving never changes a trajectory --------

struct solo_twin {
  sim_recipe recipe;
  std::unique_ptr<sim_engine> engine;
};

solo_twin make_twin(const char* recipe_text, engine_kind kind,
                    std::uint64_t seed) {
  sim_recipe recipe = sim_recipe::from_json(json::parse(recipe_text));
  rng gen(seed);
  auto engine = recipe.spec().make_engine(kind, gen);
  return {std::move(recipe), std::move(engine)};
}

/// Replays the serve scheduler's chunk schedule on a solo engine.
void solo_advance(sim_engine& engine, std::uint64_t budget,
                  std::uint64_t chunk) {
  while (budget > 0) {
    const std::uint64_t slice = std::min(chunk, budget);
    engine.run(slice);
    budget -= slice;
  }
}

TEST(ServeApp, InterleavedSessionsMatchSoloRunsBitExactly) {
  serve_config config;
  config.chunk = 1024;  // small chunk -> real interleaving per advance
  config.threads = 2;
  serve_app app(config);

  struct session_case {
    const char* recipe;
    const char* engine_name;
    engine_kind kind;
    std::uint64_t seed;
    std::string id;
  };
  std::vector<session_case> cases = {
      {rumor_recipe(), "census", engine_kind::census, 11, ""},
      {majority_recipe(), "multibatch", engine_kind::multibatch, 22, ""},
      {hawk_dove_recipe(), "multibatch", engine_kind::multibatch, 33, ""},
      {rumor_recipe(), "agent", engine_kind::agent, 44, ""},
  };
  for (auto& c : cases) {
    c.id = handle_json(app,
                       make_request("POST", "/sessions",
                                    create_body(c.recipe, c.engine_name,
                                                c.seed)),
                       201)
               .find("id")
               ->as_string();
  }

  // Interleave advances across all sessions in rounds with uneven budgets,
  // so session slices genuinely mix inside the shared scheduler.
  const std::vector<std::uint64_t> budgets = {3000, 5120, 1, 4097};
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::uint64_t budget =
          budgets[(i + static_cast<std::size_t>(round)) % budgets.size()];
      (void)handle_json(
          app,
          make_request("POST", "/sessions/" + cases[i].id + "/advance",
                       "{\"interactions\": " + std::to_string(budget) + "}"),
          200);
    }
  }

  // Every session must now be bit-identical — census AND checkpoint bytes —
  // to a solo engine that replayed the same chunked schedule alone.
  for (std::size_t i = 0; i < cases.size(); ++i) {
    solo_twin twin = make_twin(cases[i].recipe, cases[i].kind, cases[i].seed);
    for (int round = 0; round < 3; ++round) {
      const std::uint64_t budget =
          budgets[(i + static_cast<std::size_t>(round)) % budgets.size()];
      solo_advance(*twin.engine, budget, config.chunk);
    }

    const http_response served_census = app.handle(
        make_request("GET", "/sessions/" + cases[i].id + "/census"));
    ASSERT_EQ(served_census.status, 200);
    const json counts = *json::parse(served_census.body).find("counts");
    const auto twin_counts = twin.engine->census().counts();
    ASSERT_EQ(counts.size(), twin_counts.size());
    for (std::size_t s = 0; s < twin_counts.size(); ++s) {
      EXPECT_EQ(counts.items()[s].as_uint64(), twin_counts[s])
          << cases[i].engine_name << " state " << s;
    }

    const http_response served_checkpoint = app.handle(
        make_request("GET", "/sessions/" + cases[i].id + "/checkpoint"));
    ASSERT_EQ(served_checkpoint.status, 200);
    EXPECT_EQ(served_checkpoint.body,
              save_checkpoint(twin.recipe, *twin.engine).dump_string(true))
        << cases[i].engine_name;
  }
}

TEST(ServeApp, CheckpointRestoreRoundTripsThroughTheWire) {
  serve_app app;
  const std::string id =
      handle_json(app,
                  make_request("POST", "/sessions",
                               create_body(hawk_dove_recipe(), "multibatch",
                                           606)),
                  201)
          .find("id")
          ->as_string();
  (void)handle_json(app,
                    make_request("POST", "/sessions/" + id + "/advance",
                                 R"({"interactions": 70000})"),
                    200);

  const http_response checkpoint = app.handle(
      make_request("GET", "/sessions/" + id + "/checkpoint"));
  ASSERT_EQ(checkpoint.status, 200);

  const json restored = handle_json(
      app, make_request("POST", "/sessions/restore", checkpoint.body), 201);
  const std::string clone = restored.find("id")->as_string();
  EXPECT_TRUE(restored.find("restored")->as_bool());
  EXPECT_TRUE(restored.find("kernel_cache_hit")->as_bool());  // warm cache
  EXPECT_EQ(restored.find("interactions")->as_uint64(), 70000u);

  // Advancing original and clone identically keeps them byte-identical.
  for (const auto& session_id : {id, clone}) {
    (void)handle_json(app,
                      make_request("POST",
                                   "/sessions/" + session_id + "/advance",
                                   R"({"interactions": 30000})"),
                      200);
  }
  const http_response original_ckpt = app.handle(
      make_request("GET", "/sessions/" + id + "/checkpoint"));
  const http_response clone_ckpt = app.handle(
      make_request("GET", "/sessions/" + clone + "/checkpoint"));
  EXPECT_EQ(original_ckpt.body, clone_ckpt.body);

  // The restore endpoint is strict about the envelope.
  (void)handle_json(app,
                    make_request("POST", "/sessions/restore", R"({"spec": 1})"),
                    400);
}

TEST(ServeApp, CensusSumsPast64BitsAnswer400) {
  // 2^64 - 1 + 3 wraps to n = 2 in unchecked 64-bit arithmetic.
  const char* overflowing = R"({"protocol": {"name": "rumor", "params": {}},
    "initial_counts": [18446744073709551615, 3], "sampling": "distinct"})";
  EXPECT_THROW((void)sim_recipe::from_json(json::parse(overflowing)),
               invariant_error);
  serve_app app;
  for (const char* engine : {"agent", "census", "multibatch"}) {
    (void)handle_json(
        app,
        make_request("POST", "/sessions", create_body(overflowing, engine, 1)),
        400);
  }

  // Crafted checkpoints of a valid n = 300 session whose sums wrap: the
  // census itself to 300, and the multibatch engine's untouched pool to 19.
  constexpr std::uint64_t max = ~std::uint64_t{0};
  for (const char* engine : {"census", "multibatch"}) {
    const std::string id =
        handle_json(app,
                    make_request("POST", "/sessions",
                                 create_body(rumor_recipe(), engine, 7)),
                    201)
            .find("id")
            ->as_string();
    const http_response checkpoint = app.handle(
        make_request("GET", "/sessions/" + id + "/checkpoint"));
    ASSERT_EQ(checkpoint.status, 200);
    json crafted = json::parse(checkpoint.body);
    json& state = crafted["engine"];
    if (std::string(engine) == "census") {
      state["counts"] = json_uint_array({max, 301});
    } else {
      // (2^64 - 1, 20) sums to 19 mod 2^64, below n with nothing touched,
      // but its first entry exceeds the census (280, 20).
      state["untouched"] = json_uint_array({max, 20});
    }
    const json rejected = handle_json(
        app,
        make_request("POST", "/sessions/restore", crafted.dump_string(false)),
        400);
    EXPECT_NE(rejected.find("error")->as_string().find(
                  std::string(engine) == "census" ? "2^64"
                                                  : "exceeds the census"),
              std::string::npos)
        << rejected.dump_string(false);
  }
}

TEST(ServeApp, BoundarySnapshotWithPendingFreeAnswers400) {
  // A fresh multibatch session sits at a round boundary: every agent is
  // untouched. A residual carry there would close a round that never
  // opened with a collision from an empty touched pool: restore refuses it.
  serve_app app;
  const std::string id =
      handle_json(app,
                  make_request("POST", "/sessions",
                               create_body(rumor_recipe(), "multibatch", 7)),
                  201)
          .find("id")
          ->as_string();
  const http_response checkpoint =
      app.handle(make_request("GET", "/sessions/" + id + "/checkpoint"));
  ASSERT_EQ(checkpoint.status, 200);
  json crafted = json::parse(checkpoint.body);
  json& state = crafted["engine"];
  ASSERT_EQ(state.find("untouched")->dump_string(false),
            state.find("counts")->dump_string(false));
  state["pending_free"] = 1;
  const json rejected = handle_json(
      app,
      make_request("POST", "/sessions/restore", crafted.dump_string(false)),
      400);
  EXPECT_NE(rejected.find("error")->as_string().find("residual carry"),
            std::string::npos)
      << rejected.dump_string(false);
}

// --- raw-socket smoke test of the HTTP front end ---------------------------

void send_bytes(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t wrote =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(wrote, 0);
    sent += static_cast<std::size_t>(wrote);
  }
}

/// Minimal blocking client: one connection, send bytes, read until close or
/// a full response (Content-Length delimited).
class test_client {
 public:
  explicit test_client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                        sizeof(address)),
              0);
  }
  ~test_client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_all(const std::string& bytes) const { send_bytes(fd_, bytes); }

  /// Half-closes the connection: the server reads EOF, we can still read.
  void shut_down_writes() const { ::shutdown(fd_, SHUT_WR); }

  /// Closes with a reset instead of an orderly FIN, unread bytes dropped.
  void reset() {
    const linger abort_on_close{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &abort_on_close,
                 sizeof(abort_on_close));
    ::close(fd_);
    fd_ = -1;
  }

  /// Reads one Content-Length-delimited response.
  std::string read_response() {
    for (;;) {
      const std::size_t head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::size_t length = content_length(buffer_.substr(0, head_end));
        const std::size_t total = head_end + 4 + length;
        if (buffer_.size() >= total) {
          std::string response = buffer_.substr(0, total);
          buffer_.erase(0, total);
          return response;
        }
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) {
        std::string rest = buffer_;
        buffer_.clear();
        return rest;  // connection closed; return what we have
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  static std::size_t content_length(const std::string& head) {
    const std::string needle = "Content-Length: ";
    const std::size_t at = head.find(needle);
    if (at == std::string::npos) return 0;
    return static_cast<std::size_t>(
        std::strtoull(head.c_str() + at + needle.size(), nullptr, 10));
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string http_get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

std::string http_post(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(HttpServer, ServesSessionsOverRealSockets) {
  serve_config config;
  config.connection_threads = 2;
  serve_app app(config);
  http_server server(app, config);
  server.start();
  ASSERT_GT(server.port(), 0);

  {
    // One keep-alive connection: health check, create, advance, census.
    test_client client(server.port());
    client.send_all(http_get("/healthz"));
    std::string response = client.read_response();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);

    client.send_all(
        http_post("/sessions", create_body(rumor_recipe(), "census", 17)));
    response = client.read_response();
    EXPECT_NE(response.find("HTTP/1.1 201 Created"), std::string::npos);
    EXPECT_NE(response.find("\"id\":\"s1\""), std::string::npos);

    client.send_all(
        http_post("/sessions/s1/advance", R"({"interactions": 2000})"));
    response = client.read_response();
    EXPECT_NE(response.find("\"interactions\":2000"), std::string::npos);

    client.send_all(http_get("/sessions/s1/census"));
    response = client.read_response();
    EXPECT_NE(response.find("\"population\":300"), std::string::npos);
  }
  {
    // A second connection sees the same session table.
    test_client client(server.port());
    client.send_all(http_get("/stats"));
    const std::string response = client.read_response();
    EXPECT_NE(response.find("\"id\":\"s1\""), std::string::npos);
  }
  {
    // Protocol-level refusals: bad version and oversized headers close the
    // connection with the right status.
    test_client client(server.port());
    client.send_all("GET /healthz SMTP/9.9\r\n\r\n");
    EXPECT_NE(client.read_response().find("505"), std::string::npos);
  }
  {
    test_client client(server.port());
    client.send_all("GET / HTTP/1.1\r\nPad: " + std::string(20000, 'x') +
                    "\r\n\r\n");
    EXPECT_NE(client.read_response().find("431"), std::string::npos);
  }
  server.stop();
}

TEST(HttpServer, SlowlorisConnectionsAreReapedAndServiceContinues) {
  serve_config config;
  config.read_timeout_ms = 100;  // aggressive so the test is quick
  serve_app app(config);
  http_server server(app, config);
  server.start();
  {
    // Idle keep-alive connection: reaped silently once the deadline lapses
    // — no 4xx noise, the worker just moves on.
    test_client idle(server.port());
    EXPECT_EQ(idle.read_response(), "");
  }
  {
    // A peer stalled mid-request (classic slowloris: head never finishes)
    // is answered 408 and dropped instead of pinning a worker forever.
    test_client slow(server.port());
    slow.send_all("GET /healthz HTTP/1.1\r\n");  // no terminating blank line
    const std::string response = slow.read_response();
    EXPECT_NE(response.find("408"), std::string::npos) << response;
  }
  // The reaper freed the workers: a well-behaved client is served as usual.
  test_client healthy(server.port());
  healthy.send_all(http_get("/healthz"));
  EXPECT_NE(healthy.read_response().find("HTTP/1.1 200 OK"),
            std::string::npos);
  server.stop();
}

TEST(HttpServer, StopUnblocksIdleConnections) {
  serve_config config;
  serve_app app(config);
  http_server server(app, config);
  server.start();
  // An idle keep-alive connection parked in recv() must not hang stop().
  test_client idle(server.port());
  idle.send_all(http_get("/healthz"));
  (void)idle.read_response();
  server.stop();  // would deadlock if the worker never woke
}

// Peers that half-close or reset their connection meet the shipped read
// and write loops: one worker serves them in turn, each gets what the
// protocol owes it, and a well-behaved client is still served after them.
TEST(HttpServer, DroppedConnectionsLeaveTheServerServing) {
  serve_config config;
  config.connection_threads = 1;  // a wedged worker would stall everyone
  serve_app app(config);
  http_server server(app, config);
  server.start();
  const std::string healthz =
      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  {
    // Half a head, then EOF: answered 400 on the still-open read side.
    test_client cut(server.port());
    cut.send_all(healthz.substr(0, 20));
    cut.shut_down_writes();
    const std::string response = cut.read_response();
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
    EXPECT_NE(response.find("connection closed mid-request"),
              std::string::npos)
        << response;
  }
  {
    // A whole request, then a reset before reading the answer.
    test_client vanished(server.port());
    vanished.send_all(healthz);
    vanished.reset();
  }
  test_client healthy(server.port());
  healthy.send_all(http_get("/stats"));
  EXPECT_NE(healthy.read_response().find("HTTP/1.1 200 OK"),
            std::string::npos);
  server.stop();
}

// --- http_connection against a misbehaving peer ----------------------------

/// Reads requests until EOF or a refusal: "GET /a; POST /b body; eof", or
/// the refusal's status and message in place of "eof".
std::string read_until_closed(http_connection& connection) {
  std::string trace;
  try {
    while (const std::optional<http_request> request =
               connection.read_request()) {
      trace += request->method + " " + request->target;
      if (!request->body.empty()) trace += " " + request->body;
      trace += "; ";
    }
    return trace + "eof";
  } catch (const http_error& error) {
    return trace + std::to_string(error.status()) + " " + error.what();
  }
}

/// Reads one request and answers it with a `body_bytes` body: "sent", or
/// "dropped" when the write fails within a second of starting.
std::string answer_with(http_connection& connection, std::size_t body_bytes) {
  if (!connection.read_request().has_value()) return "no request";
  http_response response;
  response.body.assign(body_bytes, 'x');
  const auto start = std::chrono::steady_clock::now();
  const bool sent = connection.write_response(response, true);
  const auto took = std::chrono::steady_clock::now() - start;
  if (sent) return "sent";
  return took < std::chrono::seconds(1) ? "dropped" : "dropped late";
}

// Each row: what the peer does with its end of a socketpair, what the
// server end does through http_connection, and what the server end must
// see. The peer finishes before the server end starts, except in rows that
// run it alongside (fragments only arrive apart while someone reads them).
// Both deadlines are 100 ms and the server end's send buffer is small, so
// a peer that never reads stalls a large response.
TEST(HttpConnection, MisbehavingPeersMeetTheShippedLoops) {
  const std::string head = "GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n";
  const std::string post =
      "POST /b HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789";
  struct row {
    const char* name;
    std::function<void(int)> peer;
    std::function<std::string(http_connection&)> server;
    std::string expected;
    bool alongside = false;
  };
  const auto shut = [](int fd) { ::shutdown(fd, SHUT_WR); };
  const row rows[] = {
      {"two pipelined requests in one send",
       [&](int fd) {
         send_bytes(fd, head + post);
         shut(fd);
       },
       read_until_closed, "GET /healthz; POST /b 0123456789; eof"},
      {"a request in 2-byte pieces",
       [&](int fd) {
         for (std::size_t at = 0; at < post.size(); at += 2) {
           send_bytes(fd, post.substr(at, 2));
           std::this_thread::sleep_for(std::chrono::milliseconds(1));
         }
         shut(fd);
       },
       read_until_closed, "POST /b 0123456789; eof", true},
      {"write side shut mid-head",
       [&](int fd) {
         send_bytes(fd, head.substr(0, 20));
         shut(fd);
       },
       read_until_closed, "400 connection closed mid-request"},
      {"write side shut mid-body",
       [&](int fd) {
         send_bytes(fd, post.substr(0, post.size() - 4));
         shut(fd);
       },
       read_until_closed, "400 connection closed mid-body"},
      {"stalls mid-body past the read deadline",
       [&](int fd) { send_bytes(fd, post.substr(0, post.size() - 4)); },
       read_until_closed, "408 read deadline exceeded mid-body"},
      {"never reads a 4 MiB response",
       [&](int fd) { send_bytes(fd, head); },
       [](http_connection& c) { return answer_with(c, 4u << 20); },
       "dropped"},
      {"shuts both sides before reading",
       [&](int fd) {
         send_bytes(fd, head);
         ::shutdown(fd, SHUT_RDWR);
       },
       [](http_connection& c) { return answer_with(c, 16); }, "dropped"},
      {"has room for a short answer", [&](int fd) { send_bytes(fd, head); },
       [](http_connection& c) { return answer_with(c, 16); }, "sent"},
  };
  http_limits limits;
  limits.read_timeout_ms = 100;
  limits.write_timeout_ms = 100;
  for (const row& r : rows) {
    SCOPED_TRACE(r.name);
    int ends[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
    const int send_buffer = 4096;
    ::setsockopt(ends[0], SOL_SOCKET, SO_SNDBUF, &send_buffer,
                 sizeof(send_buffer));
    std::thread peer(r.peer, ends[1]);
    if (!r.alongside) peer.join();
    auto served = std::async(std::launch::async, [&] {
      http_connection connection(ends[0], limits);
      return r.server(connection);
    });
    // A loop that ignores its deadline would block forever: unblock it so
    // the row fails instead of hanging the suite.
    if (served.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
      ::shutdown(ends[1], SHUT_RDWR);
    }
    EXPECT_EQ(served.get(), r.expected);
    if (peer.joinable()) peer.join();
    ::close(ends[1]);
  }
}

// --- client ----------------------------------------------------------------

/// GET /sessions/{id}/census through `client`.
json census_of(serve_client& client, const std::string& id) {
  const client_response response =
      client.request("GET", "/sessions/" + id + "/census");
  EXPECT_EQ(response.status, 200) << response.body;
  return json::parse(response.body);
}

// A loopback peer that accepts and never reads: the client's send loop
// must give up at its deadline however much of the body is left. Both
// socket buffers are small, so an 8 MiB body cannot fit in them.
TEST(ServeClient, SendGivesUpOnAPeerThatNeverReads) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  const int small_buffer = 4096;
  ::setsockopt(listener, SOL_SOCKET, SO_RCVBUF, &small_buffer,
               sizeof(small_buffer));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&address),
                   sizeof(address)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t size = sizeof(address);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&address), &size),
      0);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small_buffer,
               sizeof(small_buffer));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);

  const std::string body(8u << 20, 'x');
  const auto start = std::chrono::steady_clock::now();
  auto sending = std::async(std::launch::async, [&]() -> std::string {
    try {
      send_within(fd, body, 200);
    } catch (const client_error& e) {
      return std::string(e.what()) + (e.sent() ? " (sent)" : "");
    }
    return "sent";
  });
  // A send that ignores its deadline would block until the peer reads:
  // close the peer, whose unread bytes make that a reset, so the test
  // fails instead of hanging the suite.
  if (sending.wait_for(std::chrono::seconds(5)) !=
      std::future_status::ready) {
    ::close(peer);
    peer = -1;
  }
  const std::string outcome = sending.get();
  const auto took_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(outcome, "request deadline exceeded while writing (sent)");
  EXPECT_LT(took_ms, 1000);
  if (peer >= 0) ::close(peer);
  ::close(fd);
  ::close(listener);
}

TEST(ServeClient, SessionHandleRestoresADeletedSessionBitExactly) {
  serve_config config;
  serve_app app(config);
  http_server server(app, config);
  server.start();
  client_config address;
  address.port = server.port();
  serve_client client(address);
  const json recipe = json::parse(hawk_dove_recipe());

  session_handle handle = session_handle::create(client, recipe, "census", 31);
  session_handle twin = session_handle::create(client, recipe, "census", 31);
  handle.advance(3000);
  handle.refresh_checkpoint();
  handle.advance(2000);
  // Lose the session behind the handle's back. The next advance meets a
  // 404, restores the checkpoint taken at 3000 interactions, and re-drives
  // the 2000 lost with the session together with the 4000 asked for.
  const client_response deleted =
      client.request("DELETE", "/sessions/" + handle.id());
  ASSERT_EQ(deleted.status, 200) << deleted.body;
  handle.advance(4000);
  EXPECT_EQ(handle.recoveries(), 1u);
  EXPECT_EQ(handle.interactions(), 9000u);

  // The census engine's trajectory does not depend on how it is sliced, so
  // the restored session must match an uninterrupted twin bit for bit.
  twin.advance(3000);
  twin.advance(2000);
  twin.advance(4000);
  EXPECT_EQ(twin.recoveries(), 0u);
  const json restored = census_of(client, handle.id());
  const json uninterrupted = census_of(client, twin.id());
  EXPECT_EQ(restored.find("interactions")->as_uint64(), 9000u);
  EXPECT_EQ(uninterrupted.find("interactions")->as_uint64(), 9000u);
  EXPECT_EQ(restored.find("counts")->dump_string(false),
            uninterrupted.find("counts")->dump_string(false));
  server.stop();
}

}  // namespace
}  // namespace ppg
