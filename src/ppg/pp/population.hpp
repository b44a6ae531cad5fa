// Agent population: n anonymous agents each holding a small-integer state,
// with per-state counts maintained incrementally for O(1) census queries.
#pragma once

#include <cstdint>
#include <vector>

namespace ppg {

using agent_state = std::uint32_t;

class population {
 public:
  /// `states[i]` is agent i's initial state; all states must be below
  /// `num_state_kinds`.
  population(std::vector<agent_state> states, std::size_t num_state_kinds);

  [[nodiscard]] std::size_t size() const { return states_.size(); }
  [[nodiscard]] std::size_t num_state_kinds() const { return counts_.size(); }

  [[nodiscard]] agent_state state_of(std::size_t agent) const;

  /// Moves one agent to `next` in the simulation loop: preconditions
  /// (`agent < size()`, `next < num_state_kinds()`) are validated via
  /// ppg::invariant_error in debug builds only. An out-of-range `next` would
  /// otherwise silently corrupt the census counts; callers must guarantee
  /// the bounds (the engines do, via construction-time checks and the
  /// kernel-table contract).
  void apply_interaction(std::size_t agent, agent_state next);

  /// Full census (indexed by state).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

  /// Every agent's current state, indexed by agent — the per-agent half of
  /// the population's dynamical state (the agent engine's checkpoint
  /// payload; the counts above are derived from it).
  [[nodiscard]] const std::vector<agent_state>& states() const {
    return states_;
  }

 private:
  std::vector<agent_state> states_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace ppg
