// Basic pairwise leader election: every agent starts as a leader; when two
// leaders meet, the responder is demoted. A single leader remains after
// Theta(n^2) interactions in expectation (Theta(n) parallel time). Included
// as a substrate demonstration (the paper cites the leader election
// literature as a canonical population-protocol task).
#pragma once

#include "ppg/pp/census.hpp"
#include "ppg/pp/kernel.hpp"

namespace ppg {

class leader_election_protocol final : public protocol {
 public:
  static constexpr agent_state state_leader = 0;
  static constexpr agent_state state_follower = 1;

  [[nodiscard]] std::size_t num_states() const override { return 2; }

  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const override;

  [[nodiscard]] std::string state_name(agent_state state) const override;

  /// Convergence predicate: exactly one leader remains.
  [[nodiscard]] static bool has_unique_leader(const census_view& agents);
};

}  // namespace ppg
