#include "ppg/pp/population.hpp"

#include "ppg/util/error.hpp"

namespace ppg {

population::population(std::vector<agent_state> states,
                       std::size_t num_state_kinds)
    : states_(std::move(states)), counts_(num_state_kinds, 0) {
  PPG_CHECK(!states_.empty(), "population must be non-empty");
  PPG_CHECK(num_state_kinds > 0, "need at least one state kind");
  for (const auto s : states_) {
    PPG_CHECK(s < num_state_kinds, "agent state out of range");
    ++counts_[s];
  }
}

agent_state population::state_of(std::size_t agent) const {
  PPG_CHECK(agent < states_.size(), "agent index out of range");
  return states_[agent];
}

void population::apply_interaction(std::size_t agent, agent_state next) {
  PPG_DCHECK(agent < states_.size(), "agent index out of range");
  PPG_DCHECK(next < counts_.size(), "agent state out of range");
  const agent_state prev = states_[agent];
  if (prev == next) return;
  --counts_[prev];
  ++counts_[next];
  states_[agent] = next;
}

}  // namespace ppg
