#include "ppg/serve/session.hpp"

#include <cstdlib>
#include <utility>

#include "ppg/serve/http.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

/// The kernel-cache key for a recipe: the fingerprint of its *protocol*
/// subdocument only, so sessions differing in census, sampling, or seed
/// still share the compiled kernel.
std::uint64_t protocol_key(const json& recipe_doc) {
  return json_fingerprint(
      json_require(recipe_doc, "protocol", "sim_recipe"));
}

}  // namespace

const char* session_state_name(session_state state) {
  switch (state) {
    case session_state::created:
      return "created";
    case session_state::advancing:
      return "advancing";
    case session_state::idle:
      return "idle";
    case session_state::destroyed:
      return "destroyed";
  }
  return "unknown";
}

std::shared_ptr<serve_session> session_table::create(const json& recipe_doc,
                                                     engine_kind kind,
                                                     std::uint64_t seed) {
  sim_recipe recipe = sim_recipe::from_json(recipe_doc);
  const std::uint64_t fingerprint = recipe_fingerprint(recipe);

  auto found =
      kernels_->get_or_compile(protocol_key(recipe.to_json()), recipe.proto());

  rng gen(seed);
  auto session =
      std::make_shared<serve_session>("", std::move(recipe), kind, seed);
  session->fingerprint = fingerprint;
  session->kernel_cache_hit = found.hit;
  session->engine =
      session->recipe.spec().make_engine(kind, gen, std::move(found.kernel));
  session->interactions.store(session->engine->interactions());
  return insert(std::move(session));
}

std::shared_ptr<serve_session> session_table::restore(const json& checkpoint) {
  return insert(build_restored(checkpoint));
}

std::shared_ptr<serve_session> session_table::adopt(const std::string& id,
                                                    std::uint64_t seed,
                                                    const json& checkpoint) {
  PPG_CHECK(!id.empty(), "adopt: empty session id");
  auto session = build_restored(checkpoint);
  session->seed = seed;
  session->recovered = true;
  return insert(std::move(session), id);
}

std::shared_ptr<serve_session> session_table::build_restored(
    const json& checkpoint) {
  // Resolve the shared kernel *before* restore_checkpoint so a restored
  // session joins the same warm-cache economy as a created one.
  const json& spec = json_require(checkpoint, "spec", "checkpoint");
  const json& snapshot = json_require(checkpoint, "engine", "checkpoint");
  const engine_kind kind = engine_kind_from_name(
      json_require_string(snapshot, "engine", "engine snapshot"));

  // A probe recipe only to reach the protocol object for compilation; the
  // session's own recipe is rebuilt by restore_checkpoint below.
  const sim_recipe probe = sim_recipe::from_json(spec);
  auto found = kernels_->get_or_compile(protocol_key(spec), probe.proto());

  restored_sim restored =
      restore_checkpoint(checkpoint, std::move(found.kernel));
  const std::uint64_t fingerprint = recipe_fingerprint(restored.recipe);
  auto session = std::make_shared<serve_session>(
      "", std::move(restored.recipe), kind, /*rng_seed=*/0);
  session->fingerprint = fingerprint;
  session->kernel_cache_hit = found.hit;
  session->restored = true;
  session->engine = std::move(restored.engine);
  session->interactions.store(session->engine->interactions());
  return session;
}

std::shared_ptr<serve_session> session_table::insert(
    std::shared_ptr<serve_session> session, const std::string& forced_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.size() >= max_sessions_) {
    throw http_error(503, "session table full (" +
                              std::to_string(max_sessions_) +
                              " sessions); destroy one first");
  }
  if (forced_id.empty()) {
    session->id = "s" + std::to_string(next_id_++);
  } else {
    for (const auto& existing : sessions_) {
      PPG_CHECK(existing->id != forced_id,
                "adopt: session id '" + forced_id + "' already exists");
    }
    session->id = forced_id;
    // Keep the generator ahead of any adopted "s<n>" id so future creates
    // never collide with a recovered session.
    if (forced_id.size() > 1 && forced_id[0] == 's' &&
        forced_id.find_first_not_of("0123456789", 1) == std::string::npos) {
      const std::uint64_t numeric =
          std::strtoull(forced_id.c_str() + 1, nullptr, 10);
      if (numeric >= next_id_) next_id_ = numeric + 1;
    }
  }
  sessions_.push_back(session);
  return session;
}

std::shared_ptr<serve_session> session_table::find(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& session : sessions_) {
    if (session->id == id) return session;
  }
  return nullptr;
}

bool session_table::destroy(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if ((*it)->id == id) {
      (*it)->state.store(session_state::destroyed);
      sessions_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<std::shared_ptr<serve_session>> session_table::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_;
}

std::size_t session_table::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace ppg
