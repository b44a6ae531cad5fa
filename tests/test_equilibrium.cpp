// Tests for the distributional-equilibrium machinery: induced distributions,
// the Definition 1.2 gap Psi, agreement between the closed-form analyzer and
// the exact-engine Definition 1.1 path, and the O(1/k) decay of Theorem 2.9.
#include <gtest/gtest.h>

#include <cmath>

#include "ppg/core/equilibrium.hpp"
#include "ppg/core/theory.hpp"
#include "ppg/stats/distributions.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/util/error.hpp"
#include "test_helpers.hpp"

namespace ppg {
namespace {

using testing::from_rows;

TEST(InducedDistribution, MatchesEquation3) {
  const std::vector<double> mu = {0.5, 0.3, 0.2};
  const auto full = induced_full_distribution(mu, 0.2, 0.3, 0.5);
  ASSERT_EQ(full.size(), 5u);
  EXPECT_DOUBLE_EQ(full[0], 0.2);             // AC
  EXPECT_DOUBLE_EQ(full[1], 0.3);             // AD
  EXPECT_DOUBLE_EQ(full[2], 0.5 * 0.5);       // gamma * mu(1)
  EXPECT_DOUBLE_EQ(full[3], 0.5 * 0.3);
  EXPECT_DOUBLE_EQ(full[4], 0.5 * 0.2);
  EXPECT_TRUE(is_distribution(full));
}

TEST(InducedDistribution, Validation) {
  EXPECT_THROW(
      (void)induced_full_distribution({0.5, 0.6}, 0.2, 0.3, 0.5),
      invariant_error);
  EXPECT_THROW(
      (void)induced_full_distribution({1.0}, 0.2, 0.3, 0.6),
      invariant_error);
}

igt_equilibrium_analyzer default_analyzer(std::size_t k) {
  const rd_setting setting{16.0, 1.0, 0.5, 0.5};
  return igt_equilibrium_analyzer(setting, 0.3, 0.1, 0.6, k, 0.2);
}

TEST(Analyzer, GapIsNonNegativeForAnyMu) {
  const auto analyzer = default_analyzer(5);
  for (const auto& mu :
       {std::vector<double>{1.0, 0.0, 0.0, 0.0, 0.0},
        std::vector<double>{0.0, 0.0, 0.0, 0.0, 1.0},
        std::vector<double>{0.2, 0.2, 0.2, 0.2, 0.2},
        std::vector<double>{0.05, 0.1, 0.15, 0.3, 0.4}}) {
    const auto result = analyzer.gap(mu);
    EXPECT_GE(result.epsilon, -1e-12);
    EXPECT_GE(result.best_payoff, result.mean_payoff - 1e-12);
  }
}

TEST(Analyzer, PointMassAtBestLevelHasZeroGap) {
  // If mu is the point mass at the argmax level, the mean equals the max,
  // so the gap vanishes... but the argmax can shift with mu itself. Find a
  // fixed point by iterating: for this setting the best response to "all
  // mass at top" is the top level itself (Proposition 2.2 regime).
  const auto analyzer = default_analyzer(5);
  std::vector<double> top(5, 0.0);
  top.back() = 1.0;
  const auto result = analyzer.gap(top);
  ASSERT_TRUE(proposition_2_2_regime(analyzer.setting(), 0.2));
  EXPECT_EQ(result.best_level, 4u);
  EXPECT_NEAR(result.epsilon, 0.0, 1e-12);
}

TEST(Analyzer, BestLevelIsTopInProposition22Regime) {
  // Inside the Prop 2.2 regime, f is increasing in g, so the best deviation
  // is always the top level regardless of mu.
  const auto analyzer = default_analyzer(6);
  ASSERT_TRUE(proposition_2_2_regime(analyzer.setting(), 0.2));
  const auto uniform = std::vector<double>(6, 1.0 / 6.0);
  EXPECT_EQ(analyzer.gap(uniform).best_level, 5u);
  EXPECT_EQ(analyzer.stationary_gap().best_level, 5u);
}

TEST(Analyzer, StationaryMuMatchesTheorem27) {
  const auto analyzer = default_analyzer(4);
  const auto mu = analyzer.stationary_mu();
  // beta = 0.1 -> lambda = 9.
  EXPECT_NEAR(mu[1] / mu[0], 9.0, 1e-9);
  EXPECT_TRUE(is_distribution(mu));
}

TEST(Analyzer, PayoffVsMixtureInterpolatesGridRows) {
  const auto analyzer = default_analyzer(4);
  const auto mu = std::vector<double>{0.25, 0.25, 0.25, 0.25};
  const auto result = analyzer.gap(mu);
  // payoff_vs_mixture at a grid point equals the tabulated deviation payoff.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(analyzer.payoff_vs_mixture(analyzer.grid()[i], mu),
                result.deviation_payoffs[i], 1e-9);
  }
}

TEST(Analyzer, AgreesWithExactEngineDefinition11Path) {
  // Build the full payoff matrix with the matrix engine and evaluate the
  // Definition 1.1 gap at mu_hat; the first player's deviation gap
  // restricted to GTFT strategies must match the analyzer's Psi.
  const rd_setting setting{16.0, 1.0, 0.5, 0.5};
  const double alpha = 0.3;
  const double beta = 0.1;
  const double gamma = 0.6;
  const std::size_t k = 4;
  const double g_max = 0.2;
  const igt_equilibrium_analyzer analyzer(setting, alpha, beta, gamma, k,
                                          g_max);
  const auto mu = analyzer.stationary_mu();
  const auto result = analyzer.gap(mu);

  const auto u = full_payoff_matrix(setting, k, g_max);
  const auto mu_hat = induced_full_distribution(mu, alpha, beta, gamma);
  // E_{S ~ mu_hat}[f(g_i, S)] from the engine matrix.
  for (std::size_t i = 0; i < k; ++i) {
    double dev = 0.0;
    for (std::size_t j = 0; j < mu_hat.size(); ++j) {
      dev += mu_hat[j] * u(2 + i, j);
    }
    EXPECT_NEAR(dev, result.deviation_payoffs[i], 1e-8) << "level " << i;
  }
}

TEST(GeneralDeGap, SymmetricGameConsistency) {
  // For a symmetric game u2(i, j) = u1(j, i), the two players' gaps agree
  // when mu is symmetric.
  const auto u1 = from_rows({{1.0, 0.0}, {3.0, 2.0}});
  const auto u2 = u1.transposed();
  const std::vector<double> mu = {0.5, 0.5};
  const auto result = general_de_gap(u1, u2, mu);
  EXPECT_NEAR(result.epsilon1, result.epsilon2, 1e-12);
}

TEST(GeneralDeGap, PrisonersDilemmaPureDefectionIsEquilibrium) {
  // One-shot donation PD: (AD, AD) is the Nash equilibrium, so the point
  // mass on AD has zero gap.
  const auto u1 = from_rows({{2.0, -1.0}, {3.0, 0.0}});  // rows: C, D
  const auto u2 = u1.transposed();
  const std::vector<double> defect = {0.0, 1.0};
  const auto result = general_de_gap(u1, u2, defect);
  EXPECT_NEAR(result.epsilon(), 0.0, 1e-12);
  // Full cooperation is NOT an equilibrium: gap is b - (b - c) = c = 1.
  const std::vector<double> cooperate = {1.0, 0.0};
  EXPECT_NEAR(general_de_gap(u1, u2, cooperate).epsilon(), 1.0, 1e-12);
}

TEST(GeneralDeGap, MatchingPenniesUniformIsEquilibrium) {
  const auto u1 = from_rows({{1.0, -1.0}, {-1.0, 1.0}});
  const auto u2 = from_rows({{-1.0, 1.0}, {1.0, -1.0}});
  const std::vector<double> uniform = {0.5, 0.5};
  EXPECT_NEAR(general_de_gap(u1, u2, uniform).epsilon(), 0.0, 1e-12);
  const std::vector<double> skewed = {0.9, 0.1};
  EXPECT_GT(general_de_gap(u1, u2, skewed).epsilon(), 0.5);
}

// Theorem 2.9: Psi decays as O(1/k) in an admissible regime — k * Psi stays
// bounded (and roughly stabilizes) as k grows.
TEST(Theorem29, PsiDecaysAsOneOverK) {
  const double beta = 0.2;
  const double gamma = 0.7;
  const double alpha = 0.1;
  const auto instance = make_theorem_2_9_instance(beta, gamma, 0.5);
  ASSERT_TRUE(
      check_theorem_2_9(instance.setting, beta, gamma, instance.g_max)
          .all());
  std::vector<double> scaled;
  for (const std::size_t k : {4u, 8u, 16u, 32u, 64u}) {
    const igt_equilibrium_analyzer analyzer(instance.setting, alpha, beta,
                                            gamma, k, instance.g_max);
    const auto result = analyzer.stationary_gap();
    EXPECT_GE(result.epsilon, 0.0);
    scaled.push_back(result.epsilon * static_cast<double>(k));
  }
  // k * Psi bounded: the largest value is within a constant of the smallest
  // nonzero value, and no growth trend.
  for (std::size_t i = 1; i < scaled.size(); ++i) {
    EXPECT_LT(scaled[i], 4.0 * scaled[0] + 1e-9)
        << "k*Psi grew: " << scaled[i] << " vs " << scaled[0];
  }
}

TEST(Theorem29, PsiSmallerWithMoreLevels) {
  const double beta = 0.25;
  const double gamma = 0.7;
  const double alpha = 0.05;
  const auto instance = make_theorem_2_9_instance(beta, gamma, 0.5);
  double previous = 1e300;
  for (const std::size_t k : {4u, 16u, 64u}) {
    const igt_equilibrium_analyzer analyzer(instance.setting, alpha, beta,
                                            gamma, k, instance.g_max);
    const double eps = analyzer.stationary_gap().epsilon;
    EXPECT_LT(eps, previous);
    previous = eps;
  }
}

TEST(Analyzer, InputValidation) {
  const rd_setting setting{16.0, 1.0, 0.5, 0.5};
  EXPECT_THROW(
      igt_equilibrium_analyzer(setting, 0.5, 0.1, 0.6, 4, 0.2),
      invariant_error);  // fractions don't sum to 1
  const auto analyzer = default_analyzer(3);
  EXPECT_THROW((void)analyzer.gap({0.5, 0.5}), invariant_error);  // wrong k
  EXPECT_THROW((void)analyzer.gap({0.7, 0.7, -0.4}), invariant_error);
}

}  // namespace
}  // namespace ppg
