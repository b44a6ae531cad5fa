// Randomized property tests: invariants that must hold for *arbitrary*
// valid inputs, exercised over seeded random sweeps. Complements the
// example-based suites with broad-spectrum checks on the payoff engine, the
// Ehrenfest machinery and the equilibrium gap.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "ppg/core/equilibrium.hpp"
#include "ppg/ehrenfest/exact_chain.hpp"
#include "ppg/ehrenfest/stationary.hpp"
#include "ppg/games/exact_payoff.hpp"
#include "ppg/markov/stationary.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {
namespace {

memory_one_strategy random_strategy(rng& gen) {
  memory_one_strategy s;
  s.initial_cooperation = gen.next_double();
  for (auto& p : s.cooperate_given) {
    p = gen.next_double();
  }
  return s;
}

class RandomStrategySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomStrategySweep, PayoffEngineInvariants) {
  rng gen(GetParam());
  const double delta = 0.1 + 0.85 * gen.next_double();
  const double b = 1.5 + 5.0 * gen.next_double();
  const repeated_donation_game rdg{{b, 1.0}, delta};
  const auto row = random_strategy(gen);
  const auto col = random_strategy(gen);

  // (1) Occupation masses are non-negative and sum to the expected rounds.
  const auto occ = expected_state_occupation(rdg, row, col);
  double total = 0.0;
  for (const double x : occ) {
    EXPECT_GE(x, -1e-12);
    total += x;
  }
  EXPECT_NEAR(total, rdg.expected_rounds(), 1e-8);

  // (2) Payoff is bounded by the extreme per-round rewards times the
  // expected rounds.
  const double f = expected_payoff(rdg, row, col);
  EXPECT_LE(f, b * rdg.expected_rounds() + 1e-9);
  EXPECT_GE(f, -1.0 * rdg.expected_rounds() - 1e-9);

  // (3) Role symmetry: row payoff of (A, B) equals column payoff of (B, A).
  const auto [row_ab, col_ab] = expected_payoffs(rdg, row, col);
  const auto [row_ba, col_ba] = expected_payoffs(rdg, col, row);
  EXPECT_NEAR(row_ab, col_ba, 1e-9);
  EXPECT_NEAR(col_ab, row_ba, 1e-9);

  // (4) Cooperation rate is a probability.
  const double rate = cooperation_rate(rdg, row, col);
  EXPECT_GE(rate, -1e-12);
  EXPECT_LE(rate, 1.0 + 1e-12);

  // (5) Zero-sum identity of the donation structure: the sum of both
  // players' payoffs equals (b - c) * (expected number of cooperating
  // actions). In particular it is at most 2(b-c) * expected rounds.
  EXPECT_LE(row_ab + col_ab,
            2.0 * (b - 1.0) * rdg.expected_rounds() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStrategySweep,
                         ::testing::Range<std::uint64_t>(1000, 1030));

class RandomEhrenfestSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomEhrenfestSweep, ExactChainInvariants) {
  rng gen(GetParam());
  ehrenfest_params params;
  params.k = 2 + gen.next_below(3);                    // 2..4
  params.m = 2 + gen.next_below(5);                    // 2..6
  params.a = 0.05 + 0.4 * gen.next_double();
  params.b = 0.05 + 0.4 * gen.next_double();
  ASSERT_TRUE(params.valid());

  const simplex_index index(params.k, params.m);
  const auto chain = build_ehrenfest_chain(params, index);
  EXPECT_TRUE(chain.is_stochastic(1e-12));
  EXPECT_TRUE(chain.is_irreducible());

  // Theorem 2.4 for random parameters: detailed balance at the multinomial.
  const auto pi = exact_stationary_vector(params, index);
  EXPECT_TRUE(is_distribution(pi, 1e-9));
  EXPECT_LT(chain.detailed_balance_residual(pi), 1e-13);

  // Fixed-point property.
  EXPECT_LT(total_variation(pi, chain.step(pi)), 1e-13);

  // Agreement with the generic solver.
  EXPECT_LT(total_variation(pi, solve_stationary(chain)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEhrenfestSweep,
                         ::testing::Range<std::uint64_t>(2000, 2025));

class RandomMuSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMuSweep, EquilibriumGapInvariants) {
  rng gen(GetParam());
  const rd_setting setting{16.0, 1.0, 0.5, 0.5};
  const std::size_t k = 3 + gen.next_below(6);
  const igt_equilibrium_analyzer analyzer(setting, 0.3, 0.1, 0.6, k, 0.2);

  // Random distribution over G.
  std::vector<double> mu(k);
  double total = 0.0;
  for (auto& x : mu) {
    x = 0.01 + gen.next_double();
    total += x;
  }
  for (auto& x : mu) x /= total;

  const auto de = analyzer.gap(mu);
  // (1) The gap is non-negative and the mean is a convex combination of
  // the deviation payoffs.
  EXPECT_GE(de.epsilon, -1e-12);
  double lo = de.deviation_payoffs[0];
  double hi = de.deviation_payoffs[0];
  for (const double d : de.deviation_payoffs) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GE(de.mean_payoff, lo - 1e-9);
  EXPECT_LE(de.mean_payoff, hi + 1e-9);
  EXPECT_NEAR(de.best_payoff, hi, 1e-12);

  // (2) The continuous best response weakly improves on every grid point.
  const double g_star = analyzer.best_response_generosity(mu);
  EXPECT_GE(analyzer.payoff_vs_mixture(g_star, mu), de.best_payoff - 1e-9);

  // (3) The general Definition 1.1 machinery agrees on the induced mu_hat:
  // restricted to GTFT deviations, its first-player deviation payoffs match.
  const auto u = full_payoff_matrix(setting, k, 0.2);
  const auto mu_hat = induced_full_distribution(mu, 0.3, 0.1, 0.6);
  for (std::size_t i = 0; i < k; ++i) {
    double dev = 0.0;
    for (std::size_t j = 0; j < mu_hat.size(); ++j) {
      dev += mu_hat[j] * u(2 + i, j);
    }
    EXPECT_NEAR(dev, de.deviation_payoffs[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMuSweep,
                         ::testing::Range<std::uint64_t>(3000, 3020));

}  // namespace
}  // namespace ppg
