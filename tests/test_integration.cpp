// End-to-end integration tests: the full agent-level k-IGT dynamics is
// simulated with the population-protocol engine and checked against the
// paper's predictions — the Ehrenfest reduction (Theorem 2.7), the
// stationary occupancy, the average stationary generosity (Proposition 2.8),
// and the equilibrium gap measured from the *simulated* census
// (Theorem 2.9).
#include <gtest/gtest.h>

#include <numeric>

#include "ppg/core/equilibrium.hpp"
#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/core/theory.hpp"
#include "ppg/ehrenfest/stationary.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/stats/chi_square.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/stats/summary.hpp"

namespace ppg {
namespace {

// Runs the agent-level protocol and returns time-averaged level occupancy
// (fraction of GTFT agents per level, averaged over post-burn-in samples).
std::vector<double> simulate_agent_occupancy(const abg_population& pop,
                                             std::size_t k,
                                             std::uint64_t burn,
                                             std::uint64_t samples,
                                             std::uint64_t seed) {
  const igt_protocol proto(k);
  const sim_spec spec(proto, make_igt_census(pop, k, 0),
                      pair_sampling::with_replacement);
  rng gen(seed);
  const auto sim = spec.make_engine(engine_kind::agent, gen);
  sim->run(burn);
  std::vector<double> occupancy(k, 0.0);
  for (std::uint64_t i = 0; i < samples; ++i) {
    sim->step();
    const auto census = gtft_level_counts(sim->census(), k);
    for (std::size_t j = 0; j < k; ++j) {
      occupancy[j] += static_cast<double>(census[j]);
    }
  }
  const double total =
      static_cast<double>(samples) * static_cast<double>(pop.num_gtft);
  for (auto& x : occupancy) {
    x /= total;
  }
  return occupancy;
}

TEST(Integration, AgentLevelOccupancyMatchesTheorem27) {
  const std::size_t k = 4;
  const abg_population pop{20, 20, 60};  // beta = 0.2, lambda = 4
  const auto occupancy =
      simulate_agent_occupancy(pop, k, 400'000, 600'000, 901);
  const auto expected = igt_stationary_probs(pop, k);
  EXPECT_LT(total_variation(occupancy, expected), 0.02);
}

TEST(Integration, AgentLevelMatchesCountChain) {
  // The agent-level protocol and the reduced count chain must produce the
  // same time-averaged occupancy (they are the same process up to O(1/n)
  // pair-sampling effects).
  const std::size_t k = 3;
  const abg_population pop{25, 25, 50};
  const auto agent_occ =
      simulate_agent_occupancy(pop, k, 200'000, 400'000, 902);

  igt_count_chain chain(pop, k, 0);
  rng gen(903);
  chain.run(200'000, gen);
  std::vector<double> chain_occ(k, 0.0);
  const std::uint64_t samples = 400'000;
  for (std::uint64_t i = 0; i < samples; ++i) {
    chain.step(gen);
    for (std::size_t j = 0; j < k; ++j) {
      chain_occ[j] += static_cast<double>(chain.counts()[j]);
    }
  }
  for (auto& x : chain_occ) {
    x /= static_cast<double>(samples) * static_cast<double>(pop.num_gtft);
  }
  EXPECT_LT(total_variation(agent_occ, chain_occ), 0.02);
}

TEST(Integration, StationarySnapshotPassesChiSquare) {
  // Draw many independent stationary-ish snapshots (long gaps between
  // samples) of a small-m chain and chi-square the pooled per-level ball
  // counts against the multinomial marginals.
  const std::size_t k = 3;
  const abg_population pop{6, 6, 12};
  const auto params = igt_ehrenfest_params(pop, k);
  igt_count_chain chain(pop, k, 0);
  rng gen(904);
  chain.run(100'000, gen);  // burn-in
  std::vector<std::uint64_t> pooled(k, 0);
  constexpr int snapshots = 4000;
  for (int s = 0; s < snapshots; ++s) {
    chain.run(2'000, gen);  // decorrelation gap >> t_mix for this instance
    for (std::size_t j = 0; j < k; ++j) {
      pooled[j] += chain.counts()[j];
    }
  }
  const auto expected = ehrenfest_stationary_probs(params);
  const auto result = chi_square_gof(pooled, expected);
  // Snapshots are not perfectly independent; accept unless wildly off.
  EXPECT_GT(result.p_value, 1e-4);
}

TEST(Integration, AverageGenerosityMatchesProposition28) {
  const std::size_t k = 5;
  const double g_max = 0.3;
  const abg_population pop{30, 15, 55};  // beta = 0.15
  igt_count_chain chain(pop, k, 0);
  rng gen(905);
  chain.run(500'000, gen);
  const auto grid = generosity_grid(k, g_max);
  running_summary avg_g;
  for (int i = 0; i < 500'000; ++i) {
    chain.step(gen);
    double g_bar = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      g_bar += grid[j] * static_cast<double>(chain.counts()[j]);
    }
    avg_g.add(g_bar / static_cast<double>(pop.num_gtft));
  }
  const double predicted =
      average_stationary_generosity(pop.beta(), k, g_max);
  EXPECT_NEAR(avg_g.mean(), predicted, 0.01);
}

TEST(Integration, SimulatedCensusIsApproximateDe) {
  // Theorem 2.9 end-to-end: run the dynamics, take the time-averaged census
  // as mu, and verify its equilibrium gap is within a constant factor of
  // the gap of the ideal stationary mean (and hence O(1/k)).
  const double beta = 0.2;
  const double gamma = 0.7;
  const double alpha = 0.1;
  const auto instance = make_theorem_2_9_instance(beta, gamma, 0.5);
  const std::size_t k = 8;
  const auto pop = abg_population::from_fractions(200, alpha, beta, gamma);
  const auto occupancy =
      simulate_agent_occupancy(pop, k, 600'000, 800'000, 906);

  const igt_equilibrium_analyzer analyzer(instance.setting, alpha, beta,
                                          gamma, k, instance.g_max);
  const auto simulated = analyzer.gap(occupancy);
  const auto ideal = analyzer.stationary_gap();
  EXPECT_GE(simulated.epsilon, 0.0);
  // The simulated census should achieve a gap comparable to the ideal one.
  EXPECT_LT(simulated.epsilon, 3.0 * ideal.epsilon + 0.05);
}

TEST(Integration, MixingTimeScalesRoughlyLinearlyInK) {
  // Theorem 2.7: t_mix = O(k n log n) and Omega(k n) — doubling k should
  // roughly double the time for the census mean to reach its stationary
  // value. We measure a proxy: interactions until the average level first
  // exceeds 90% of its stationary expectation, averaged over seeds.
  const abg_population pop{20, 20, 60};
  auto hitting_proxy = [&](std::size_t k, std::uint64_t seed) {
    const auto probs = igt_stationary_probs(pop, k);
    double target = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      target += static_cast<double>(j) * probs[j];
    }
    target *= 0.9;
    igt_count_chain chain(pop, k, 0);
    rng gen(seed);
    const std::uint64_t cap = 100'000'000;
    for (std::uint64_t t = 0; t < cap; ++t) {
      chain.step(gen);
      double mean_level = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        mean_level +=
            static_cast<double>(j) * static_cast<double>(chain.counts()[j]);
      }
      mean_level /= static_cast<double>(pop.num_gtft);
      if (mean_level >= target) return t;
    }
    return cap;
  };
  running_summary t4;
  running_summary t8;
  for (std::uint64_t s = 0; s < 8; ++s) {
    t4.add(static_cast<double>(hitting_proxy(4, 907 + s)));
    t8.add(static_cast<double>(hitting_proxy(8, 917 + s)));
  }
  const double ratio = t8.mean() / t4.mean();
  EXPECT_GT(ratio, 1.2);  // clearly grows with k
  EXPECT_LT(ratio, 5.0);  // but not super-linearly
}

}  // namespace
}  // namespace ppg
