// Substrate demonstration: the population-protocol engines running three
// classic dynamics — approximate majority, leader election, and rumor
// spreading — with their textbook convergence behavior. Each block picks an
// execution backend through sim_spec::make_engine (census or multibatch);
// both engines implement the same interaction law, so the choice is purely
// a speed trade-off (see DESIGN.md §3).
#include <cmath>
#include <cstddef>
#include <iostream>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/protocols/approximate_majority.hpp"
#include "ppg/pp/protocols/leader_election.hpp"
#include "ppg/pp/protocols/rumor.hpp"
#include "ppg/stats/summary.hpp"
#include "ppg/util/table.hpp"

int main() {
  using namespace ppg;
  const std::size_t n = 1000;
  constexpr int trials = 20;

  std::cout << "Population protocol engine demo, n = " << n << " agents, "
            << trials << " trials each.\n\n";

  // --- Approximate majority from a 60/40 split, on the census engine.
  {
    const approximate_majority_protocol proto;
    std::vector<std::uint64_t> counts(3, 0);
    counts[approximate_majority_protocol::state_x] = 3 * n / 5;
    counts[approximate_majority_protocol::state_y] = 2 * n / 5;
    const sim_spec spec(proto, counts);
    running_summary steps;
    int majority_wins = 0;
    for (int t = 0; t < trials; ++t) {
      rng gen(100 + static_cast<std::uint64_t>(t));
      const auto sim = spec.make_engine(engine_kind::census, gen);
      sim->run_until(approximate_majority_protocol::has_consensus,
                     200'000'000);
      steps.add(sim->parallel_time());
      if (sim->census().count(approximate_majority_protocol::state_x) ==
          sim->population_size()) {
        ++majority_wins;
      }
    }
    std::cout << "Approximate majority (60/40 split, census engine):\n"
              << "  consensus in " << fmt(steps.mean(), 1) << " +- "
              << fmt(steps.ci_half_width(), 1)
              << " parallel time (theory: O(log n) = "
              << fmt(std::log(static_cast<double>(n)), 1) << ")\n"
              << "  initial majority won " << majority_wins << "/" << trials
              << " trials\n\n";
  }

  // --- Leader election from all-leaders, on the census engine.
  {
    const leader_election_protocol proto;
    std::vector<std::uint64_t> counts(2, 0);
    counts[leader_election_protocol::state_leader] = n;
    const sim_spec spec(proto, counts);
    running_summary steps;
    for (int t = 0; t < trials; ++t) {
      rng gen(200 + static_cast<std::uint64_t>(t));
      const auto sim = spec.make_engine(engine_kind::census, gen);
      sim->run_until(leader_election_protocol::has_unique_leader,
                     200'000'000);
      steps.add(sim->parallel_time());
    }
    std::cout << "Leader election (pairwise demotion, census engine):\n"
              << "  unique leader in " << fmt(steps.mean(), 1) << " +- "
              << fmt(steps.ci_half_width(), 1)
              << " parallel time (theory: Theta(n) = " << n << ")\n\n";
  }

  // --- Rumor spreading from a single informed agent, on the multibatch
  // engine: at the start and once few susceptible agents remain, almost
  // every interaction is an identity, which its skip batches pass over in
  // one geometric draw; mid-spread it runs aggregated rounds.
  {
    const rumor_protocol proto;
    std::vector<std::uint64_t> counts(2, 0);
    counts[rumor_protocol::state_susceptible] = n - 1;
    counts[rumor_protocol::state_informed] = 1;
    const sim_spec spec(proto, counts);
    running_summary steps;
    for (int t = 0; t < trials; ++t) {
      rng gen(300 + static_cast<std::uint64_t>(t));
      const auto sim = spec.make_engine(engine_kind::multibatch, gen);
      sim->run_until(rumor_protocol::all_informed, 200'000'000);
      steps.add(sim->parallel_time());
    }
    std::cout << "Rumor spreading (one-way push, multibatch engine):\n"
              << "  fully informed in " << fmt(steps.mean(), 1) << " +- "
              << fmt(steps.ci_half_width(), 1)
              << " parallel time (theory: Theta(log n) growth + coupon tail)"
              << "\n";
  }
  return 0;
}
