#include "ppg/pp/protocol_registry.hpp"

#include <utility>

#include "ppg/core/igt_protocol.hpp"
#include "ppg/games/closed_form.hpp"
#include "ppg/pp/protocols/approximate_majority.hpp"
#include "ppg/pp/protocols/leader_election.hpp"
#include "ppg/pp/protocols/rumor.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

constexpr const char* where_game = "game params";
constexpr const char* where_rule = "rule params";

}  // namespace

std::unique_ptr<protocol> make_protocol(const std::string& name,
                                        const json& params) {
  // Parameterless protocols still require {}, so a typo'd param fails
  // loudly.
  if (name == "rumor") {
    json_require_keys(params, {}, "protocol params");
    return std::make_unique<rumor_protocol>();
  }
  if (name == "approximate-majority") {
    json_require_keys(params, {}, "protocol params");
    return std::make_unique<approximate_majority_protocol>();
  }
  if (name == "leader-election") {
    json_require_keys(params, {}, "protocol params");
    return std::make_unique<leader_election_protocol>();
  }
  if (name == "igt") {
    json_require_keys(params, {"k", "discipline"}, "igt params");
    const std::uint64_t k = json_require_uint(params, "k", "igt params");
    const auto discipline = revision_discipline_from_name(
        json_require_string(params, "discipline", "igt params"));
    return std::make_unique<igt_protocol>(static_cast<std::size_t>(k),
                                          discipline);
  }
  if (name == "matrix-game") {
    json_require_keys(params, {"game", "rule", "discipline"},
                      "matrix-game params");
    auto game = game_matrix_from_json(
        json_require(params, "game", "matrix-game params"));
    auto rule = update_rule_from_json(
        json_require(params, "rule", "matrix-game params"));
    const auto discipline = revision_discipline_from_name(
        json_require_string(params, "discipline", "matrix-game params"));
    return std::make_unique<game_protocol>(std::move(game), std::move(rule),
                                           discipline);
  }
  PPG_CHECK(false, "protocol registry: unknown protocol '" + name + "'");
}

game_matrix game_matrix_from_json(const json& params) {
  const std::string& name = json_require_string(params, "name", where_game);
  if (name == "donation") {
    json_require_keys(params, {"name", "b", "c"}, where_game);
    return donation_matrix({json_require_number(params, "b", where_game),
                            json_require_number(params, "c", where_game)});
  }
  if (name == "prisoners-dilemma") {
    json_require_keys(
        params, {"name", "reward", "sucker", "temptation", "punishment"},
        where_game);
    return prisoners_dilemma_matrix(
        {json_require_number(params, "reward", where_game),
         json_require_number(params, "sucker", where_game),
         json_require_number(params, "temptation", where_game),
         json_require_number(params, "punishment", where_game)});
  }
  if (name == "hawk-dove") {
    json_require_keys(params, {"name", "value", "cost"}, where_game);
    return hawk_dove_matrix(json_require_number(params, "value", where_game),
                            json_require_number(params, "cost", where_game));
  }
  if (name == "stag-hunt") {
    json_require_keys(params, {"name", "stag", "hare"}, where_game);
    return stag_hunt_matrix(json_require_number(params, "stag", where_game),
                            json_require_number(params, "hare", where_game));
  }
  if (name == "rock-paper-scissors") {
    json_require_keys(params, {"name", "win", "loss"}, where_game);
    return rock_paper_scissors_matrix(
        json_require_number(params, "win", where_game),
        json_require_number(params, "loss", where_game));
  }
  if (name == "igt") {
    json_require_keys(params, {"name", "k", "b", "c", "delta", "s1", "g_max"},
                      where_game);
    rd_setting setting;
    setting.b = json_require_number(params, "b", where_game);
    setting.c = json_require_number(params, "c", where_game);
    setting.delta = json_require_number(params, "delta", where_game);
    setting.s1 = json_require_number(params, "s1", where_game);
    return igt_game_matrix(
        static_cast<std::size_t>(json_require_uint(params, "k", where_game)),
        setting, json_require_number(params, "g_max", where_game));
  }
  if (name == "custom") {
    json_require_keys(params, {"name", "strategies", "payoffs"}, where_game);
    std::vector<std::string> strategies;
    for (const auto& item :
         json_require_array(params, "strategies", where_game)) {
      PPG_CHECK(item.is_string(),
                "game params: strategy names must be strings");
      strategies.push_back(item.as_string());
    }
    std::vector<double> payoffs;
    for (const auto& item :
         json_require_array(params, "payoffs", where_game)) {
      PPG_CHECK(item.is_number(), "game params: payoffs must be numbers");
      payoffs.push_back(item.as_number());
    }
    return game_matrix(std::move(strategies), std::move(payoffs));
  }
  PPG_CHECK(false, "game params: unknown game '" + name + "'");
}

std::shared_ptr<const update_rule> update_rule_from_json(const json& params) {
  const std::string& name = json_require_string(params, "name", where_rule);
  if (name == "imitate-if-better") {
    json_require_keys(params, {"name"}, where_rule);
    return std::make_shared<imitate_if_better_rule>();
  }
  if (name == "proportional-imitation") {
    json_require_keys(params, {"name", "rate"}, where_rule);
    return std::make_shared<proportional_imitation_rule>(
        json_require_number(params, "rate", where_rule));
  }
  if (name == "logit") {
    json_require_keys(params, {"name", "temperature"}, where_rule);
    return std::make_shared<logit_response_rule>(
        json_require_number(params, "temperature", where_rule));
  }
  if (name == "igt-ladder") {
    json_require_keys(params, {"name", "k"}, where_rule);
    return std::make_shared<igt_ladder_rule>(
        static_cast<std::size_t>(json_require_uint(params, "k", where_rule)));
  }
  PPG_CHECK(false, "rule params: unknown rule '" + name + "'");
}

revision_discipline revision_discipline_from_name(const std::string& name) {
  if (name == "one_way") return revision_discipline::one_way;
  if (name == "two_way") return revision_discipline::two_way;
  PPG_CHECK(false, "unknown revision discipline '" + name + "'");
}

}  // namespace ppg
