#include "ppg/serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <utility>

#include "ppg/util/error.hpp"

namespace ppg {
namespace {

/// Deepest JSON nesting a request body may use (json::parse_limits).
constexpr std::size_t max_json_depth = 64;

http_response error_response(int status, const std::string& message) {
  json body = json::object();
  body["error"] = message;
  http_response response;
  response.status = status;
  response.body = body.dump_string(false);
  return response;
}

http_response json_response(int status, const json& body) {
  http_response response;
  response.status = status;
  response.body = body.dump_string(false);
  return response;
}

/// Splits "/sessions/{id}[/verb]" into (id, verb); verb is "" for the bare
/// session resource.
std::pair<std::string, std::string> split_session_target(
    std::string_view target) {
  constexpr std::string_view prefix = "/sessions/";
  target.remove_prefix(prefix.size());
  const std::size_t slash = target.find('/');
  if (slash == std::string_view::npos) {
    return {std::string(target), std::string()};
  }
  return {std::string(target.substr(0, slash)),
          std::string(target.substr(slash + 1))};
}

}  // namespace

serve_app::serve_app(const serve_config& config,
                     std::unique_ptr<session_store> store)
    : config_(config),
      sessions_(kernels_, config.max_sessions),
      scheduler_(config.threads, config.chunk),
      store_(std::move(store)) {
  if (store_ == nullptr && !config_.store_dir.empty()) {
    store_ = make_fs_store(config_.store_dir);
  }
  if (store_ != nullptr) recover_from_store();
}

void serve_app::recover_from_store() {
  for (store_file& file : store_->scan().sessions) {
    try {
      auto session = sessions_.adopt(file.id, file.seed, file.checkpoint);
      session->durable.store(true);
      session->generation.store(file.generation);
      recovered_.fetch_add(1);
    } catch (const std::exception& error) {
      // The envelope parsed but the checkpoint inside did not survive the
      // strict restore (or the id collided): quarantine, keep booting.
      (void)store_->quarantine(file.id, error.what());
    }
  }
}

void serve_app::spill_locked(serve_session& session) {
  if (store_ == nullptr || !session.durable.load() ||
      session.degraded.load()) {
    return;
  }
  store_file file;
  file.id = session.id;
  file.generation = session.generation.load() + 1;
  file.seed = session.seed;
  file.checkpoint = save_checkpoint(session.recipe, *session.engine);
  std::string error;
  if (store_->spill(file, &error)) {
    session.generation.store(file.generation);
    session.chunks_since_spill = 0;
  } else {
    session.degraded.store(true);
    degraded_.fetch_add(1);
    std::cerr << "ppg-serve: warning: spill of session " << session.id
              << " failed (" << error
              << "); session degraded to non-durable\n";
  }
}

void serve_app::make_durable(serve_session& session) {
  if (store_ == nullptr) return;
  const std::lock_guard<std::mutex> lock(session.mu);
  session.durable.store(true);
  spill_locked(session);  // generation 1: a crash right now loses nothing
}

void serve_app::drain() {
  for (const auto& session : sessions_.snapshot()) {
    // Blocking lock: an in-flight advance finishes its slices first.
    const std::lock_guard<std::mutex> lock(session->mu);
    if (session->chunks_since_spill > 0 || session->generation.load() == 0) {
      spill_locked(*session);
    }
  }
}

void serve_app::spill_all_unlocked_sessions() {
  for (const auto& session : sessions_.snapshot()) {
    const std::unique_lock<std::mutex> lock(session->mu, std::try_to_lock);
    if (!lock.owns_lock()) continue;  // mid-advance: its last spill stands
    if (session->chunks_since_spill > 0 || session->generation.load() == 0) {
      spill_locked(*session);
    }
  }
}

http_response serve_app::handle(const http_request& request) {
  requests_.fetch_add(1);
  try {
    return route(request);
  } catch (const http_error& error) {
    return error_response(error.status(), error.what());
  } catch (const invariant_error& error) {
    // Every strict-parse failure (malformed recipe, bad checkpoint, wrong
    // JSON shape) surfaces here: the client's input, the client's 400.
    return error_response(400, error.what());
  } catch (const std::exception& error) {
    return error_response(500, error.what());
  }
}

http_response serve_app::route(const http_request& request) {
  const std::string& target = request.target;
  if (target == "/healthz") {
    if (request.method != "GET") throw http_error(405, "use GET /healthz");
    json body = json::object();
    body["status"] = "ok";
    body["sessions"] = static_cast<std::uint64_t>(sessions_.size());
    return json_response(200, body);
  }
  if (target == "/stats") {
    if (request.method != "GET") throw http_error(405, "use GET /stats");
    return stats();
  }
  if (target == "/sessions") {
    if (request.method != "POST") throw http_error(405, "use POST /sessions");
    return create_session(request);
  }
  if (target == "/sessions/restore") {
    if (request.method != "POST") {
      throw http_error(405, "use POST /sessions/restore");
    }
    return restore_session(request);
  }
  if (target.rfind("/sessions/", 0) == 0) {
    const auto [id, verb] = split_session_target(target);
    if (id.empty()) throw http_error(404, "missing session id");
    if (verb.empty()) {
      if (request.method == "GET") return session_info(*require_session(id));
      if (request.method == "DELETE") return destroy_session(id);
      throw http_error(405, "use GET or DELETE on /sessions/{id}");
    }
    if (verb == "advance") {
      if (request.method != "POST") {
        throw http_error(405, "use POST /sessions/{id}/advance");
      }
      return advance_session(*require_session(id), request);
    }
    if (verb == "census") {
      if (request.method != "GET") {
        throw http_error(405, "use GET /sessions/{id}/census");
      }
      return session_census(*require_session(id));
    }
    if (verb == "checkpoint") {
      if (request.method != "GET") {
        throw http_error(405, "use GET /sessions/{id}/checkpoint");
      }
      return session_checkpoint(*require_session(id));
    }
    throw http_error(404, "unknown session resource '" + verb + "'");
  }
  throw http_error(404, "no route for '" + target + "'");
}

json serve_app::parse_body(const http_request& request) const {
  if (request.body.empty()) {
    throw http_error(400, "this endpoint requires a JSON body");
  }
  json::parse_limits limits;
  limits.max_bytes = config_.max_body_bytes;
  limits.max_depth = max_json_depth;
  return json::parse(request.body, limits);
}

std::shared_ptr<serve_session> serve_app::require_session(
    const std::string& id) {
  auto session = sessions_.find(id);
  if (session == nullptr) {
    throw http_error(404, "no session '" + id + "'");
  }
  return session;
}

namespace {

/// Shared session fields of the create / restore / info responses.
json session_summary(const serve_session& session) {
  json body = json::object();
  body["id"] = session.id;
  body["engine"] = engine_kind_name(session.kind);
  body["state"] = session_state_name(session.state.load());
  body["fingerprint"] = session.fingerprint;
  body["kernel_cache_hit"] = session.kernel_cache_hit;
  body["restored"] = session.restored;
  body["recovered"] = session.recovered;
  body["durable"] = session.durable.load() && !session.degraded.load();
  body["generation"] = session.generation.load();
  body["interactions"] = session.interactions.load();
  return body;
}

}  // namespace

http_response serve_app::create_session(const http_request& request) {
  const json body = parse_body(request);
  const char* where = "create session";
  PPG_CHECK(body.is_object(), "create session: body must be a JSON object");
  for (const auto& [key, value] : body.members()) {
    (void)value;
    PPG_CHECK(key == "recipe" || key == "engine" || key == "seed",
              "create session: unknown key '" + key +
                  "' (accepted: recipe, engine, seed)");
  }
  const json& recipe = json_require(body, "recipe", where);
  const engine_kind kind =
      engine_kind_from_name(json_require_string(body, "engine", where));
  std::uint64_t seed = 0;
  if (const json* given = body.find("seed")) {
    PPG_CHECK(given->is_exact_uint(),
              "create session: seed must be an unsigned integer");
    seed = given->as_uint64();
  }
  auto session = sessions_.create(recipe, kind, seed);
  make_durable(*session);
  json response = session_summary(*session);
  response["population"] = session->engine->population_size();
  return json_response(201, response);
}

http_response serve_app::restore_session(const http_request& request) {
  auto session = sessions_.restore(parse_body(request));
  make_durable(*session);
  json response = session_summary(*session);
  response["population"] = session->engine->population_size();
  return json_response(201, response);
}

http_response serve_app::advance_session(serve_session& session,
                                         const http_request& request) {
  const json body = parse_body(request);
  json_require_keys(body, {"interactions"}, "advance");
  const std::uint64_t budget =
      json_require_uint(body, "interactions", "advance");
  PPG_CHECK(budget >= 1, "advance: interactions must be >= 1");

  std::unique_lock<std::mutex> lock(session.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    throw http_error(409, "session '" + session.id +
                              "' is busy; retry when its advance completes");
  }
  if (session.state.load() == session_state::destroyed) {
    throw http_error(404, "session '" + session.id + "' was destroyed");
  }
  session.state.store(session_state::advancing);
  std::uint64_t slices = 0;
  try {
    // The budget is split at multiples of the scheduler chunk, so the slice
    // schedule — and therefore the trajectory (DESIGN.md §9) — is identical
    // to an unsplit advance; the spill between pieces observes exactly the
    // state an uninterrupted run passes through.
    const std::uint64_t chunk = scheduler_.chunk();
    const bool spilling = store_ != nullptr && session.durable.load() &&
                          !session.degraded.load();
    const std::uint64_t stride =
        spilling && config_.spill_every_chunks > 0
            ? config_.spill_every_chunks * chunk
            : 0;
    std::uint64_t remaining = budget;
    while (remaining > 0) {
      const std::uint64_t piece =
          stride == 0 ? remaining : std::min(remaining, stride);
      slices += scheduler_.advance(*session.engine, piece);
      remaining -= piece;
      if (spilling) {
        session.chunks_since_spill += (piece + chunk - 1) / chunk;
        if (stride != 0 &&
            session.chunks_since_spill >= config_.spill_every_chunks) {
          spill_locked(session);
        }
      }
    }
  } catch (...) {
    session.state.store(session_state::idle);
    throw;
  }
  session.state.store(session_state::idle);
  session.advances.fetch_add(1);
  session.slices.fetch_add(slices);
  session.interactions.store(session.engine->interactions());
  if (session.chunks_since_spill > 0) {
    spill_locked(session);  // advancing → idle: the spill that makes an
                            // idle session always recoverable as-is
  }

  json response = json::object();
  response["id"] = session.id;
  response["advanced"] = budget;
  response["slices"] = slices;
  response["interactions"] = session.engine->interactions();
  return json_response(200, response);
}

http_response serve_app::session_info(const serve_session& session) {
  json body = session_summary(session);
  body["seed"] = session.seed;
  body["advances"] = session.advances.load();
  body["slices"] = session.slices.load();
  return json_response(200, body);
}

http_response serve_app::session_census(serve_session& session) {
  std::unique_lock<std::mutex> lock(session.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    throw http_error(409, "session '" + session.id + "' is busy");
  }
  if (session.state.load() == session_state::destroyed) {
    throw http_error(404, "session '" + session.id + "' was destroyed");
  }
  const census_view view = session.engine->census();
  json body = json::object();
  body["id"] = session.id;
  body["interactions"] = session.engine->interactions();
  body["population"] = view.population_size();
  body["counts"] = json_uint_array(view.counts());
  return json_response(200, body);
}

http_response serve_app::session_checkpoint(serve_session& session) {
  std::unique_lock<std::mutex> lock(session.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    throw http_error(409, "session '" + session.id + "' is busy");
  }
  if (session.state.load() == session_state::destroyed) {
    throw http_error(404, "session '" + session.id + "' was destroyed");
  }
  // The response body IS the checkpoint document — byte-identical to what
  // save_checkpoint + dump would write to a file, so a client can pipe it
  // straight to disk or back into POST /sessions/restore.
  http_response response;
  response.body =
      save_checkpoint(session.recipe, *session.engine).dump_string(true);
  return response;
}

http_response serve_app::destroy_session(const std::string& id) {
  if (!sessions_.destroy(id)) {
    throw http_error(404, "no session '" + id + "'");
  }
  if (store_ != nullptr) store_->remove(id);
  json body = json::object();
  body["id"] = id;
  body["destroyed"] = true;
  return json_response(200, body);
}

http_response serve_app::stats() {
  json body = json::object();
  body["requests"] = requests_.load();
  body["queue_depth"] = static_cast<std::uint64_t>(scheduler_.queued());
  body["active_slices"] = static_cast<std::uint64_t>(scheduler_.active());

  json scheduler = json::object();
  scheduler["threads"] = static_cast<std::uint64_t>(scheduler_.threads());
  scheduler["chunk"] = scheduler_.chunk();
  body["scheduler"] = std::move(scheduler);

  json cache = json::object();
  cache["entries"] = static_cast<std::uint64_t>(kernels_.size());
  cache["hits"] = kernels_.hits();
  cache["misses"] = kernels_.misses();
  body["kernel_cache"] = std::move(cache);

  json durability = json::object();
  durability["enabled"] = store_ != nullptr;
  durability["recovered_sessions"] = recovered_.load();
  durability["degraded_sessions"] = degraded_.load();
  if (store_ != nullptr) {
    const json store_stats = store_->stats();
    for (const auto& [key, value] : store_stats.members()) {
      durability[key] = value;
    }
  }
  body["durability"] = std::move(durability);

  json sessions = json::array();
  for (const auto& session : sessions_.snapshot()) {
    json entry = session_summary(*session);
    entry["advances"] = session->advances.load();
    entry["slices"] = session->slices.load();
    sessions.push_back(std::move(entry));
  }
  body["sessions"] = std::move(sessions);
  return json_response(200, body);
}

http_server::http_server(serve_app& app, const serve_config& config)
    : app_(&app), config_(config) {}

http_server::~http_server() { stop(); }

void http_server::start() {
  listener_ = std::make_unique<tcp_listener>(config_.port);
  acceptor_ = std::thread([this] { accept_loop(); });
  const std::size_t workers =
      config_.connection_threads == 0 ? 1 : config_.connection_threads;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { connection_loop(); });
  }
}

void http_server::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  if (listener_) listener_->shut_down();
  if (acceptor_.joinable()) acceptor_.join();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // SHUT_RD (not RDWR): a worker parked in recv() unblocks with EOF, but
    // an in-flight response still reaches its client — stop() during a
    // graceful drain never truncates an answer already being written.
    for (const int fd : open_) ::shutdown(fd, SHUT_RD);
    for (const int fd : pending_) ::close(fd);
    pending_.clear();
    pending_ready_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void http_server::accept_loop() {
  for (;;) {
    const int fd = listener_->accept_connection();
    if (fd < 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    pending_.push_back(fd);
    pending_ready_.notify_one();
  }
}

void http_server::connection_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      pending_ready_.wait(lock,
                          [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping, queue drained
      fd = pending_.front();
      pending_.pop_front();
      open_.insert(fd);
    }
    serve_connection(fd);
    const std::lock_guard<std::mutex> lock(mutex_);
    open_.erase(fd);
  }
}

void http_server::serve_connection(int fd) {
  http_limits limits;
  limits.max_body_bytes = config_.max_body_bytes;
  limits.read_timeout_ms = config_.read_timeout_ms;
  limits.write_timeout_ms = config_.write_timeout_ms;
  http_connection connection(fd, limits);
  for (;;) {
    std::optional<http_request> request;
    try {
      request = connection.read_request();
    } catch (const http_error& error) {
      // The request never reached the app; answer with the parse failure
      // and drop the connection (its framing state is unknown).
      json body = json::object();
      body["error"] = std::string(error.what());
      http_response response;
      response.status = error.status();
      response.body = body.dump_string(false);
      connection.write_response(response, /*keep_alive=*/false);
      return;
    } catch (...) {
      return;
    }
    if (!request.has_value()) return;  // clean EOF
    const bool keep = request->keep_alive();
    const http_response response = app_->handle(*request);
    if (!connection.write_response(response, keep)) return;
    if (!keep) return;
  }
}

}  // namespace ppg
