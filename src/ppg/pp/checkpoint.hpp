// Checkpointable simulations: versioned, self-describing serialization of a
// running engine. A checkpoint file bundles
//   - the *spec* header: a sim_recipe — protocol by registry name + params
//     (pp/protocol_registry.hpp), the initial census, and the sampling
//     discipline — i.e. a serialized sim_spec, so the file reconstructs its
//     own simulation with no out-of-band context; and
//   - the *engine* snapshot: one engine's complete dynamical state
//     (sim_engine::save_state — census, interaction counter, aggregation
//     carries, full 256-bit RNG position).
// The contract is bit-exact resume: restore_checkpoint in a fresh process
// yields an engine whose continued trajectory is identical, draw for draw,
// to the engine that was saved (see DESIGN.md §9, including what "identical"
// means for the run()-budget-truncating engines). Versioning rule: additive
// fields keep schema_version, breaking changes bump it, and restore rejects
// versions it does not know.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ppg/pp/engine.hpp"
#include "ppg/util/json.hpp"

namespace ppg {

/// Version of the checkpoint file format (the outer envelope and the spec
/// header; engine snapshots carry their own engine_state_version).
inline constexpr std::uint64_t checkpoint_schema_version = 1;

/// pair_sampling ⇄ its canonical JSON string ("distinct" /
/// "with_replacement").
[[nodiscard]] const char* pair_sampling_name(pair_sampling sampling);
[[nodiscard]] pair_sampling pair_sampling_from_name(const std::string& name);

/// A self-describing sim_spec: the registry name + params that rebuild the
/// protocol, the initial census, and the sampling discipline. Unlike
/// sim_spec (which borrows its protocol), a recipe *owns* the protocol it
/// names, so a recipe restored from JSON is a complete, freestanding
/// simulation description — the checkpoint spec header, and the shape a
/// ppg-serve session request will take. Move-only; the materialized
/// sim_spec and every engine built from it stay valid across moves (the
/// owned protocol's address is stable).
class sim_recipe {
 public:
  sim_recipe(std::string protocol_name, json protocol_params,
             std::vector<std::uint64_t> initial_counts,
             pair_sampling sampling = pair_sampling::distinct);

  sim_recipe(sim_recipe&&) = default;
  sim_recipe& operator=(sim_recipe&&) = default;
  sim_recipe(const sim_recipe&) = delete;
  sim_recipe& operator=(const sim_recipe&) = delete;

  /// Strict parse of to_json()'s form: canonical keys {"protocol"
  /// {"name", "params"}, "initial_counts", "sampling"}, unknown keys
  /// rejected, errors via ppg::invariant_error.
  [[nodiscard]] static sim_recipe from_json(const json& doc);

  /// Canonical field order, numbers exact: from_json(to_json()) rebuilds an
  /// equivalent recipe and to_json() round-trips byte-identically through
  /// dump/parse.
  [[nodiscard]] json to_json() const;

  [[nodiscard]] const sim_spec& spec() const { return *spec_; }
  [[nodiscard]] const protocol& proto() const { return *proto_; }
  [[nodiscard]] const std::string& protocol_name() const { return name_; }
  [[nodiscard]] const json& protocol_params() const { return params_; }
  [[nodiscard]] pair_sampling sampling() const { return spec_->sampling(); }

 private:
  std::string name_;
  json params_;
  std::unique_ptr<protocol> proto_;
  std::optional<sim_spec> spec_;  ///< built against *proto_; set in ctor
};

/// Stable 64-bit FNV-1a hash of a JSON document's canonical compact form
/// (dump_string(false)). Deterministic across platforms and processes —
/// util/json's writer is byte-stable — so the value is a durable content
/// key, not a per-process hash.
[[nodiscard]] std::uint64_t json_fingerprint(const json& doc);

/// Canonical fingerprint of a recipe: json_fingerprint(recipe.to_json()).
/// Two recipes fingerprint equal iff their canonical JSON forms are byte
/// identical — i.e. same protocol name + params, same initial census, same
/// sampling — regardless of how the source documents were formatted. This
/// is the ppg-serve session-spec identity; the serve kernel cache keys on
/// the protocol subdocument alone (sessions differing only in census or
/// sampling share a compiled kernel).
[[nodiscard]] std::uint64_t recipe_fingerprint(const sim_recipe& recipe);

/// The checkpoint document for one running engine:
/// {"schema_version", "spec": recipe.to_json(), "engine": engine snapshot}.
/// The engine must have been built from recipe.spec() (the snapshot is
/// validated against the spec on restore, not here).
[[nodiscard]] json save_checkpoint(const sim_recipe& recipe,
                                   const sim_engine& engine);

/// A restored simulation: the rebuilt recipe and the engine continuing the
/// saved trajectory. The engine references the recipe's protocol — keep the
/// struct together (it is movable as a unit).
struct restored_sim {
  sim_recipe recipe;
  std::unique_ptr<sim_engine> engine;
};

/// Rebuilds a simulation from a checkpoint document: protocol via the
/// global registry, engine of the recorded kind from the recipe's spec,
/// state via restore_state. Throws ppg::invariant_error on any schema,
/// version, or consistency violation.
///
/// A non-null `kernel` is a precompiled kernel for the engine (nullptr
/// compiles fresh). It must have been compiled from a protocol with the
/// same canonical JSON form as the checkpoint's — ppg-serve guarantees this
/// by keying its warm cache on json_fingerprint of the protocol
/// subdocument.
[[nodiscard]] restored_sim restore_checkpoint(
    const json& checkpoint,
    std::shared_ptr<const kernel_table> kernel = nullptr);

}  // namespace ppg
