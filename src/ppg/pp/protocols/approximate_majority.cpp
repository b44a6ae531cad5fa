#include "ppg/pp/protocols/approximate_majority.hpp"

namespace ppg {

std::vector<outcome> approximate_majority_protocol::outcome_distribution(
    agent_state initiator, agent_state responder) const {
  if (initiator == state_x && responder == state_y) {
    return {{state_x, state_blank, 1.0}};
  }
  if (initiator == state_y && responder == state_x) {
    return {{state_y, state_blank, 1.0}};
  }
  if (initiator == state_x && responder == state_blank) {
    return {{state_x, state_x, 1.0}};
  }
  if (initiator == state_y && responder == state_blank) {
    return {{state_y, state_y, 1.0}};
  }
  return {{initiator, responder, 1.0}};
}

std::string approximate_majority_protocol::state_name(
    agent_state state) const {
  switch (state) {
    case state_x:
      return "X";
    case state_y:
      return "Y";
    case state_blank:
      return "B";
    default:
      return protocol::state_name(state);
  }
}

bool approximate_majority_protocol::has_consensus(const census_view& agents) {
  const std::uint64_t n = agents.population_size();
  return agents.count(state_x) == n || agents.count(state_y) == n;
}

}  // namespace ppg
