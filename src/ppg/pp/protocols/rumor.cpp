#include "ppg/pp/protocols/rumor.hpp"

namespace ppg {

std::vector<outcome> rumor_protocol::outcome_distribution(
    agent_state initiator, agent_state responder) const {
  if (initiator == state_informed) return {{initiator, state_informed, 1.0}};
  return {{initiator, responder, 1.0}};
}

std::string rumor_protocol::state_name(agent_state state) const {
  return state == state_informed ? "I" : "S";
}

bool rumor_protocol::all_informed(const census_view& agents) {
  return agents.count(state_informed) == agents.population_size();
}

}  // namespace ppg
