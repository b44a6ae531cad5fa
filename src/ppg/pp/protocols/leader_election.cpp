#include "ppg/pp/protocols/leader_election.hpp"

namespace ppg {

std::vector<outcome> leader_election_protocol::outcome_distribution(
    agent_state initiator, agent_state responder) const {
  if (initiator == state_leader && responder == state_leader) {
    return {{state_leader, state_follower, 1.0}};
  }
  return {{initiator, responder, 1.0}};
}

std::string leader_election_protocol::state_name(agent_state state) const {
  return state == state_leader ? "L" : "F";
}

bool leader_election_protocol::has_unique_leader(const census_view& agents) {
  return agents.count(state_leader) == 1;
}

}  // namespace ppg
