// Census-level observation of a population: the per-state count vector plus
// the population size, without any per-agent data. All engine-facing
// observation — convergence predicates, snapshots, trace recording — is
// phrased against this view, so it works identically whether the executing
// engine keeps a per-agent array (agent engine) or only the counts (census
// and multibatch engines). See DESIGN.md §3.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ppg/pp/population.hpp"

namespace ppg {

/// Non-owning view of a census: per-state counts and the population size n.
/// Cheap to copy; valid only while the underlying counts vector lives.
class census_view {
 public:
  census_view(const std::vector<std::uint64_t>& counts,
              std::uint64_t population_size);

  /// Number of agents currently in `state`.
  [[nodiscard]] std::uint64_t count(agent_state state) const;

  /// Full census (indexed by state).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return *counts_;
  }

  [[nodiscard]] std::uint64_t population_size() const { return n_; }
  [[nodiscard]] std::size_t num_state_kinds() const { return counts_->size(); }

  /// Census normalized by population size.
  [[nodiscard]] std::vector<double> fractions() const;
  [[nodiscard]] double fraction(agent_state state) const;

 private:
  const std::vector<std::uint64_t>* counts_;
  std::uint64_t n_;
};

/// A convergence predicate over the census — the uniform signature every
/// engine's run_until accepts. (Population-based predicates are gone: the
/// census view carries everything an anonymous-population predicate can
/// lawfully depend on, on every engine.)
using census_predicate = std::function<bool(const census_view&)>;

/// One census snapshot taken during a run.
struct census_snapshot {
  std::uint64_t interactions = 0;
  std::vector<std::uint64_t> counts;
};

}  // namespace ppg
