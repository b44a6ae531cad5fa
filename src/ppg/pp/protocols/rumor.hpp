// One-way rumor spreading (push epidemics): an informed initiator informs
// the responder. Expected completion in Theta(n log n) interactions.
// Included as the simplest one-way protocol — the same initiator-only update
// discipline the k-IGT dynamics uses (footnote 3 of the paper).
#pragma once

#include "ppg/pp/census.hpp"
#include "ppg/pp/kernel.hpp"

namespace ppg {

class rumor_protocol final : public protocol {
 public:
  static constexpr agent_state state_susceptible = 0;
  static constexpr agent_state state_informed = 1;

  [[nodiscard]] std::size_t num_states() const override { return 2; }

  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const override;

  [[nodiscard]] std::string state_name(agent_state state) const override;

  [[nodiscard]] static bool all_informed(const census_view& agents);
};

}  // namespace ppg
