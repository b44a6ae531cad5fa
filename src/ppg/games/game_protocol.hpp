// Compiles a (game_matrix, update_rule) pair into a population protocol:
// the kernel of an ordered (initiator, responder) encounter is the rule's
// revision distribution for the initiator (one_way) or the independent
// product of both sides' revisions (two_way). The compiled protocol exposes
// the full transition kernel (outcome_distribution), so every composed game
// runs unchanged on the agent, census, and multibatch engines, and feeds the
// mean-field extraction in games/mean_field.hpp. See DESIGN.md §7 for the
// compilation contract.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/games/game_matrix.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/kernel.hpp"

namespace ppg {

/// Which side(s) of an encounter revise their strategy: one_way is the
/// paper's initiator-only discipline (footnote 3); two_way revises both
/// sides independently, each keyed on the partner's *pre-interaction*
/// strategy (standard two-way population protocol semantics).
enum class revision_discipline : std::uint8_t { one_way, two_way };

/// A matrix game plus an update rule, compiled into a protocol.
/// outcome_distribution queries the rule and validates its revision
/// distributions on every call; engines call it once per pair when they
/// compile their kernel_table, so a rule that breaks its contract is
/// rejected before any interaction runs.
class game_protocol : public protocol {
 public:
  game_protocol(game_matrix game, std::shared_ptr<const update_rule> rule,
                revision_discipline discipline = revision_discipline::one_way);

  [[nodiscard]] const game_matrix& game() const { return game_; }
  [[nodiscard]] const update_rule& rule() const { return *rule_; }
  [[nodiscard]] revision_discipline discipline() const { return discipline_; }

  [[nodiscard]] std::size_t num_states() const override {
    return game_.num_strategies();
  }

  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const override;

  /// The strategy's name in the game.
  [[nodiscard]] std::string state_name(agent_state state) const override;

 private:
  game_matrix game_;
  std::shared_ptr<const update_rule> rule_;
  revision_discipline discipline_;
};

}  // namespace ppg
