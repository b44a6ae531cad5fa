// The named protocol registry: make_protocol reconstructs a protocol from a
// (name, JSON params) pair, which is what makes a serialized sim_spec — and
// therefore a checkpoint file (pp/checkpoint.hpp) — self-describing: the
// header names the protocol, the registry rebuilds it, and the restored
// engine continues the trajectory. The same schema is the request surface
// of `ppg-serve`: a session spec is one registry entry plus an initial
// census.
//
// Built-in entries (params are strict: unknown keys are rejected):
//   "rumor", "approximate-majority", "leader-election"   — params {}
//   "igt"          — {"k": uint, "discipline": "one_way"|"two_way"}
//   "matrix-game"  — {"game": <game>, "rule": <rule>, "discipline": ...}
// where <game> / <rule> are the JSON forms read by game_matrix_from_json /
// update_rule_from_json below. A new protocol is one more branch in
// make_protocol.
#pragma once

#include <memory>
#include <string>

#include "ppg/games/game_protocol.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/util/json.hpp"

namespace ppg {

/// Builds the named built-in protocol from its parameter object; throws
/// ppg::invariant_error on an unknown name or malformed params.
[[nodiscard]] std::unique_ptr<protocol> make_protocol(const std::string& name,
                                                      const json& params);

/// Builds a game_matrix from its JSON description: {"name": ...} selects a
/// builder ("donation" {b,c}, "prisoners-dilemma" {reward,sucker,temptation,
/// punishment}, "hawk-dove" {value,cost}, "stag-hunt" {stag,hare},
/// "rock-paper-scissors" {win,loss}, "igt" {k,b,c,delta,s1,g_max}) or, with
/// name "custom", reads explicit {"strategies": [names], "payoffs":
/// [row-major q*q]}. Strict-parse: unknown keys and missing fields throw.
[[nodiscard]] game_matrix game_matrix_from_json(const json& params);

/// Builds an update rule from {"name": ...}: "imitate-if-better" {},
/// "proportional-imitation" {rate}, "logit" {temperature}, "igt-ladder" {k}.
[[nodiscard]] std::shared_ptr<const update_rule> update_rule_from_json(
    const json& params);

/// Parses revision_discipline's canonical JSON string ("one_way"/"two_way").
[[nodiscard]] revision_discipline revision_discipline_from_name(
    const std::string& name);

}  // namespace ppg
