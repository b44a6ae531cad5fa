#include "ppg/games/game_protocol.hpp"

#include <cmath>
#include <utility>

#include "ppg/util/error.hpp"

namespace ppg {

namespace {

/// Validates one revision distribution against the rule contract.
std::vector<double> checked_revision(const update_rule& rule,
                                     const game_matrix& game,
                                     std::size_t self, std::size_t partner) {
  auto p = rule.revise(game, self, partner);
  PPG_CHECK(p.size() == game.num_strategies(),
            "update rule must return one probability per strategy");
  double total = 0.0;
  for (const double x : p) {
    PPG_CHECK(x >= 0.0, "revision probabilities must be non-negative");
    total += x;
  }
  PPG_CHECK(std::abs(total - 1.0) <= 1e-9,
            "revision probabilities must sum to 1");
  return p;
}

}  // namespace

game_protocol::game_protocol(game_matrix game,
                             std::shared_ptr<const update_rule> rule,
                             revision_discipline discipline)
    : game_(std::move(game)),
      rule_(std::move(rule)),
      discipline_(discipline) {
  PPG_CHECK(rule_ != nullptr, "game_protocol requires an update rule");
}

std::vector<outcome> game_protocol::outcome_distribution(
    agent_state initiator, agent_state responder) const {
  const std::size_t q = game_.num_strategies();
  PPG_CHECK(initiator < q && responder < q, "strategy index out of range");
  const auto initiator_next =
      checked_revision(*rule_, game_, initiator, responder);
  std::vector<outcome> dist;
  if (discipline_ == revision_discipline::one_way) {
    for (agent_state u = 0; u < q; ++u) {
      if (initiator_next[u] > 0.0) {
        dist.push_back({u, responder, initiator_next[u]});
      }
    }
    return dist;
  }
  // Both sides revise independently, each keyed on the partner's
  // pre-interaction strategy; the joint kernel is the product.
  const auto responder_next =
      checked_revision(*rule_, game_, responder, initiator);
  for (agent_state u = 0; u < q; ++u) {
    if (initiator_next[u] <= 0.0) continue;
    for (agent_state v = 0; v < q; ++v) {
      if (responder_next[v] <= 0.0) continue;
      dist.push_back({u, v, initiator_next[u] * responder_next[v]});
    }
  }
  return dist;
}

std::string game_protocol::state_name(agent_state state) const {
  return game_.strategy_name(state);
}

}  // namespace ppg
