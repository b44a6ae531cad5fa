// Three-state approximate majority (Angluin, Aspnes, Eisenstat 2008): the
// classic fast consensus dynamics, included as a substrate demonstration of
// the protocol engine and as a reference point for the dynamics literature
// the paper builds on (Section 1.3).
//
// States: X (opinion 0), Y (opinion 1), B (blank). Rules (two-way, applied
// from the initiator's perspective):
//   X + Y -> X + B      (initiator converts the opposing responder to blank)
//   X + B -> X + X      (initiator recruits a blank responder)
//   Y + X -> Y + B
//   Y + B -> Y + Y
#pragma once

#include "ppg/pp/census.hpp"
#include "ppg/pp/kernel.hpp"

namespace ppg {

class approximate_majority_protocol final : public protocol {
 public:
  static constexpr agent_state state_x = 0;
  static constexpr agent_state state_y = 1;
  static constexpr agent_state state_blank = 2;

  [[nodiscard]] std::size_t num_states() const override { return 3; }

  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const override;

  [[nodiscard]] std::string state_name(agent_state state) const override;

  /// Convergence predicate: every agent holds the same non-blank opinion.
  [[nodiscard]] static bool has_consensus(const census_view& agents);
};

}  // namespace ppg
