#include "ppg/pp/checkpoint.hpp"

#include <string>
#include <utility>

#include "ppg/pp/protocol_registry.hpp"
#include "ppg/util/error.hpp"

namespace ppg {

const char* pair_sampling_name(pair_sampling sampling) {
  return sampling == pair_sampling::distinct ? "distinct"
                                             : "with_replacement";
}

pair_sampling pair_sampling_from_name(const std::string& name) {
  if (name == "distinct") return pair_sampling::distinct;
  if (name == "with_replacement") return pair_sampling::with_replacement;
  PPG_CHECK(false, "unknown pair_sampling '" + name + "'");
}

sim_recipe::sim_recipe(std::string protocol_name, json protocol_params,
                       std::vector<std::uint64_t> initial_counts,
                       pair_sampling sampling)
    : name_(std::move(protocol_name)), params_(std::move(protocol_params)) {
  PPG_CHECK(params_.is_object(),
            "sim_recipe: protocol params must be a JSON object");
  proto_ = make_protocol(name_, params_);
  spec_.emplace(*proto_, std::move(initial_counts), sampling);
}

sim_recipe sim_recipe::from_json(const json& doc) {
  const char* where = "sim_recipe";
  json_require_keys(doc, {"protocol", "initial_counts", "sampling"}, where);
  const json& proto = json_require(doc, "protocol", where);
  json_require_keys(proto, {"name", "params"}, "sim_recipe protocol");
  return sim_recipe(
      json_require_string(proto, "name", where),
      json_require(proto, "params", where),
      json_require_uint_array(doc, "initial_counts", where),
      pair_sampling_from_name(json_require_string(doc, "sampling", where)));
}

json sim_recipe::to_json() const {
  json doc = json::object();
  json proto = json::object();
  proto["name"] = name_;
  proto["params"] = params_;
  doc["protocol"] = std::move(proto);
  doc["initial_counts"] = json_uint_array(spec_->initial_counts());
  doc["sampling"] = pair_sampling_name(spec_->sampling());
  return doc;
}

std::uint64_t json_fingerprint(const json& doc) {
  // FNV-1a 64 over the canonical compact rendering. FNV is not collision-
  // resistant against adversaries, but the fingerprint only keys a cache of
  // kernels the server compiled itself — a collision costs correctness of
  // nothing the client can observe beyond its own (rejected) recipe.
  const std::string text = doc.dump_string(false);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t recipe_fingerprint(const sim_recipe& recipe) {
  return json_fingerprint(recipe.to_json());
}

json save_checkpoint(const sim_recipe& recipe, const sim_engine& engine) {
  json checkpoint = json::object();
  checkpoint["schema_version"] = checkpoint_schema_version;
  checkpoint["spec"] = recipe.to_json();
  checkpoint["engine"] = engine.save_state();
  return checkpoint;
}

restored_sim restore_checkpoint(const json& checkpoint,
                                std::shared_ptr<const kernel_table> kernel) {
  const char* where = "checkpoint";
  json_require_keys(checkpoint, {"schema_version", "spec", "engine"}, where);
  const std::uint64_t version =
      json_require_uint(checkpoint, "schema_version", where);
  PPG_CHECK(version == checkpoint_schema_version,
            "checkpoint: unsupported schema_version " +
                std::to_string(version) + " (this build reads " +
                std::to_string(checkpoint_schema_version) + ")");
  sim_recipe recipe = sim_recipe::from_json(json_require(checkpoint, "spec",
                                                         where));
  const json& snapshot = json_require(checkpoint, "engine", where);
  const engine_kind kind = engine_kind_from_name(
      json_require_string(snapshot, "engine", "engine snapshot"));
  // The seed is irrelevant: restore_state overwrites the engine's whole
  // dynamical state, RNG position included.
  rng scratch(0);
  auto engine = recipe.spec().make_engine(kind, scratch, std::move(kernel));
  engine->restore_state(snapshot);
  return {std::move(recipe), std::move(engine)};
}

}  // namespace ppg
