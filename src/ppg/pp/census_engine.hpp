// The census engine: simulation state is the per-state count vector only —
// no per-agent array — so memory and per-step cost are O(q) in the number of
// protocol states and independent of the population size n. Each step
// samples an ordered *state* pair directly from the counts, in exactly the
// law induced by the requested pair_sampling discipline over agents, then
// samples the kernel outcome and updates four counts. This unlocks
// populations in the hundreds of millions of agents (DESIGN.md §3).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"

namespace ppg {

class census_engine final : public census_level_engine {
 public:
  /// The census_level_engine contract (a compiled kernel, an initial census
  /// whose out-of-space states are empty, n >= 2); the only census-level
  /// engine that also supports pair_sampling::with_replacement.
  census_engine(std::shared_ptr<const kernel_table> kernel,
                std::vector<std::uint64_t> initial_counts, rng gen,
                pair_sampling sampling = pair_sampling::distinct);

  void run(std::uint64_t steps) override;

  [[nodiscard]] engine_kind kind() const override {
    return engine_kind::census;
  }

  /// Snapshot payload: the count vector (the engine's whole state beyond
  /// the shared envelope).
  [[nodiscard]] json save_state() const override;
  void restore_state(const json& snapshot) override;

 private:
  pair_sampling sampling_;
};

}  // namespace ppg
