// Tests for the statistics layer: summaries, empirical
// comparisons, chi-square goodness of fit, and closed-form distributions.
#include <gtest/gtest.h>

#include <cmath>

#include "ppg/stats/chi_square.hpp"
#include "ppg/stats/discrete_sampling.hpp"
#include "ppg/stats/distributions.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/stats/summary.hpp"
#include "ppg/util/error.hpp"
#include "test_helpers.hpp"

namespace ppg {
namespace {

using testing::draw_multinomial;

TEST(Summary, MeanVarianceKnownValues) {
  running_summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, EmptySummaryThrows) {
  running_summary s;
  EXPECT_THROW((void)s.mean(), invariant_error);
  EXPECT_THROW((void)s.max(), invariant_error);
  s.add(1.0);
  EXPECT_THROW((void)s.variance(), invariant_error);
}

TEST(Summary, LowerQuantileIsTheInverseCdf) {
  // The q-quantile is the smallest sample s with F(s) >= q, whatever order
  // the samples arrive in.
  EXPECT_THROW((void)lower_quantile({}, 0.5), invariant_error);
  const std::vector<double> samples = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(lower_quantile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(lower_quantile(samples, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(lower_quantile(samples, 0.3), 2.0);
  EXPECT_DOUBLE_EQ(lower_quantile(samples, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(lower_quantile(samples, 0.9), 5.0);
  EXPECT_DOUBLE_EQ(lower_quantile(samples, 1.0), 5.0);
  EXPECT_THROW((void)lower_quantile(samples, 1.5), invariant_error);
  EXPECT_THROW((void)lower_quantile(samples, -0.1), invariant_error);
}

TEST(Summary, CiShrinksWithSamples) {
  running_summary small;
  running_summary large;
  rng gen(1);
  for (int i = 0; i < 100; ++i) small.add(gen.next_double());
  for (int i = 0; i < 10000; ++i) large.add(gen.next_double());
  EXPECT_LT(large.ci_half_width(), small.ci_half_width());
}

TEST(Empirical, TotalVariationKnownValues) {
  EXPECT_DOUBLE_EQ(total_variation({1.0, 0.0}, {0.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(total_variation({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(total_variation({0.7, 0.3}, {0.5, 0.5}), 0.2);
}

TEST(Empirical, TvRequiresEqualSupports) {
  EXPECT_THROW((void)total_variation({1.0}, {0.5, 0.5}), invariant_error);
}

TEST(Empirical, IsDistribution) {
  EXPECT_TRUE(is_distribution({0.25, 0.75}));
  EXPECT_FALSE(is_distribution({0.5, 0.6}));
  EXPECT_FALSE(is_distribution({-0.1, 1.1}));
}

TEST(Empirical, MeanAndVariance) {
  const std::vector<double> p = {0.5, 0.5};
  const std::vector<double> v = {0.0, 2.0};
  EXPECT_DOUBLE_EQ(distribution_mean(p, v), 1.0);
  EXPECT_DOUBLE_EQ(distribution_variance(p, v), 1.0);
}

TEST(ChiSquare, RegularizedGammaKnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (const double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-10);
  }
  // P(0.5, x) = erf(sqrt(x)).
  for (const double x : {0.2, 1.0, 4.0}) {
    EXPECT_NEAR(regularized_gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-10);
  }
}

TEST(ChiSquare, TailKnownValues) {
  // Chi-square with 2 dof: tail = exp(-x/2).
  EXPECT_NEAR(chi_square_tail(2.0, 2.0), std::exp(-1.0), 1e-10);
  // 95th percentile of chi-square(1) is ~3.841.
  EXPECT_NEAR(chi_square_tail(3.841, 1.0), 0.05, 1e-3);
}

TEST(ChiSquare, GofAcceptsTrueDistribution) {
  rng gen(101);
  const std::vector<double> probs = {0.2, 0.3, 0.5};
  const auto counts = draw_multinomial(30000, probs, gen);
  const auto result = chi_square_gof(counts, probs);
  EXPECT_GT(result.p_value, 0.001);
}

TEST(ChiSquare, GofRejectsWrongDistribution) {
  rng gen(102);
  const std::vector<double> truth = {0.5, 0.5};
  const std::vector<double> claimed = {0.8, 0.2};
  const auto counts = draw_multinomial(10000, truth, gen);
  const auto result = chi_square_gof(counts, claimed);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(ChiSquare, MergesSparseCells) {
  // n = 400: the last three cells have expected counts 4, 2, 2 (< 5), so
  // they must be merged.
  const std::vector<std::uint64_t> observed = {200, 190, 6, 2, 2};
  const std::vector<double> expected = {0.5, 0.48, 0.01, 0.005, 0.005};
  const auto result = chi_square_gof(observed, expected, 5.0);
  EXPECT_LT(result.merged_buckets, observed.size());
  EXPECT_GT(result.p_value, 0.0);
}

TEST(Distributions, BinomialPmfSumsToOne) {
  for (const double p : {0.2, 0.5, 0.9}) {
    double sum = 0.0;
    for (std::uint64_t k = 0; k <= 20; ++k) {
      sum += binomial_pmf(20, p, k);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Distributions, BinomialPmfKnownValue) {
  EXPECT_NEAR(binomial_pmf(4, 0.5, 2), 6.0 / 16.0, 1e-12);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 1.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 0.5, 5), 0.0);
}

TEST(Distributions, MultinomialPmfMatchesBinomialWhenKIsTwo) {
  const std::vector<double> probs = {0.3, 0.7};
  for (std::uint64_t x = 0; x <= 10; ++x) {
    EXPECT_NEAR(multinomial_pmf(10, probs, {x, 10 - x}),
                binomial_pmf(10, 0.3, x), 1e-12);
  }
}

TEST(Distributions, MultinomialPmfSumsToOne) {
  const std::vector<double> probs = {0.2, 0.3, 0.5};
  double sum = 0.0;
  for (std::uint64_t x = 0; x <= 6; ++x) {
    for (std::uint64_t y = 0; x + y <= 6; ++y) {
      sum += multinomial_pmf(6, probs, {x, y, 6 - x - y});
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Distributions, MultinomialCountMismatchThrows) {
  EXPECT_THROW(
      (void)multinomial_pmf(5, {0.5, 0.5}, {2, 2}),
      invariant_error);
}

TEST(Distributions, SampleBinomialMoments) {
  rng gen(7);
  const std::uint64_t n = 100;
  const double p = 0.3;
  running_summary s;
  for (int i = 0; i < 50000; ++i) {
    s.add(static_cast<double>(sample_binomial(n, p, gen)));
  }
  EXPECT_NEAR(s.mean(), n * p, 0.2);
  EXPECT_NEAR(s.variance(), n * p * (1 - p), 1.0);
}

TEST(Distributions, SampleBinomialEdgeCases) {
  rng gen(8);
  EXPECT_EQ(sample_binomial(10, 0.0, gen), 0u);
  EXPECT_EQ(sample_binomial(10, 1.0, gen), 10u);
  EXPECT_EQ(sample_binomial(0, 0.5, gen), 0u);
}

TEST(Distributions, SampleMultinomialSumsToM) {
  rng gen(9);
  const std::vector<double> probs = {0.1, 0.2, 0.3, 0.4};
  for (int trial = 0; trial < 100; ++trial) {
    const auto counts = draw_multinomial(50, probs, gen);
    std::uint64_t total = 0;
    for (const auto c : counts) total += c;
    EXPECT_EQ(total, 50u);
  }
}

TEST(Distributions, SampleMultinomialMeans) {
  rng gen(10);
  const std::vector<double> probs = {0.1, 0.6, 0.3};
  std::vector<double> sums(3, 0.0);
  constexpr int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const auto counts = draw_multinomial(30, probs, gen);
    for (std::size_t i = 0; i < 3; ++i) {
      sums[i] += static_cast<double>(counts[i]);
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(sums[i] / trials, 30.0 * probs[i], 0.15);
  }
}

TEST(Distributions, GeometricWeightsShape) {
  const auto w = geometric_weights(4, 2.0);
  EXPECT_TRUE(is_distribution(w));
  // Ratios between consecutive weights equal lambda.
  EXPECT_NEAR(w[1] / w[0], 2.0, 1e-12);
  EXPECT_NEAR(w[2] / w[1], 2.0, 1e-12);
  EXPECT_NEAR(w[3] / w[2], 2.0, 1e-12);
}

TEST(Distributions, GeometricWeightsUniformWhenLambdaOne) {
  const auto w = geometric_weights(5, 1.0);
  for (const double x : w) {
    EXPECT_NEAR(x, 0.2, 1e-12);
  }
}

TEST(Distributions, GeometricWeightsExtremeLambdaStable) {
  // Must not overflow or produce NaN for large k and lambda.
  const auto w = geometric_weights(64, 10.0);
  EXPECT_TRUE(is_distribution(w, 1e-9));
  EXPECT_GT(w.back(), 0.89);  // mass concentrates at the top
  const auto w_small = geometric_weights(64, 0.1);
  EXPECT_TRUE(is_distribution(w_small, 1e-9));
  EXPECT_GT(w_small.front(), 0.89);
}

}  // namespace
}  // namespace ppg
