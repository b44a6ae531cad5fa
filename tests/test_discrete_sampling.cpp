// The discrete-sampling layer: every sampler is validated against its
// closed-form PMF (chi-square goodness of fit plus moment checks in both
// the small-count and the mode-inversion regimes), at its boundary
// parameters (p in {0, 1}, draws = population, single category), and under
// the two-runs-bit-identical determinism contract the engines rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ppg/stats/chi_square.hpp"
#include "ppg/stats/discrete_sampling.hpp"
#include "ppg/stats/distributions.hpp"
#include "ppg/stats/summary.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(DiscreteSampling, BinomialChiSquareSmallRegime) {
  // n * p below the crossover: the geometric-skip path.
  rng gen(21);
  const std::uint64_t n = 40;
  const double p = 0.3;
  std::vector<std::uint64_t> observed(n + 1, 0);
  constexpr int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    ++observed[sample_binomial(n, p, gen)];
  }
  std::vector<double> expected(n + 1);
  for (std::uint64_t k = 0; k <= n; ++k) {
    expected[k] = binomial_pmf(n, p, k);
  }
  EXPECT_GT(chi_square_gof(observed, expected).p_value, 1e-4);
}

TEST(DiscreteSampling, BinomialChiSquareModeInversionRegime) {
  // n * p far above the crossover: the inversion-from-the-mode path.
  rng gen(22);
  const std::uint64_t n = 1000;
  const double p = 0.47;
  std::vector<std::uint64_t> observed(n + 1, 0);
  constexpr int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    ++observed[sample_binomial(n, p, gen)];
  }
  std::vector<double> expected(n + 1);
  for (std::uint64_t k = 0; k <= n; ++k) {
    expected[k] = binomial_pmf(n, p, k);
  }
  EXPECT_GT(chi_square_gof(observed, expected).p_value, 1e-4);
}

TEST(DiscreteSampling, BinomialMomentsAtHugeN) {
  // The multibatch scale: n beyond any table, expected count moderate.
  rng gen(23);
  const std::uint64_t n = 3'000'000'000ull;
  const double p = 1e-6;  // mean 3000, far into the inversion path
  running_summary s;
  for (int t = 0; t < 3000; ++t) {
    s.add(static_cast<double>(sample_binomial(n, p, gen)));
  }
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  EXPECT_NEAR(s.mean(), mean, 5.0 * sd / std::sqrt(3000.0));
  EXPECT_NEAR(s.variance(), sd * sd, 0.2 * sd * sd);
}

TEST(DiscreteSampling, BinomialBoundaries) {
  rng gen(24);
  EXPECT_EQ(sample_binomial(10, 0.0, gen), 0u);
  EXPECT_EQ(sample_binomial(10, 1.0, gen), 10u);
  EXPECT_EQ(sample_binomial(0, 0.5, gen), 0u);
  for (int t = 0; t < 200; ++t) {
    EXPECT_LE(sample_binomial(5, 0.9999, gen), 5u);
  }
}

TEST(DiscreteSampling, HypergeometricChiSquareBothPaths) {
  // draws <= 8 takes the exact sequential path, larger draws the
  // mode-inversion path; validate both against the closed-form PMF.
  for (const std::uint64_t draws : {std::uint64_t{6}, std::uint64_t{20}}) {
    rng gen(25 + draws);
    const std::uint64_t total = 60;
    const std::uint64_t marked = 25;
    std::vector<std::uint64_t> observed(draws + 1, 0);
    constexpr int trials = 40000;
    for (int t = 0; t < trials; ++t) {
      ++observed[sample_hypergeometric(total, marked, draws, gen)];
    }
    std::vector<double> expected(draws + 1);
    for (std::uint64_t x = 0; x <= draws; ++x) {
      expected[x] = hypergeometric_pmf(total, marked, draws, x);
    }
    EXPECT_GT(chi_square_gof(observed, expected).p_value, 1e-4)
        << "draws=" << draws;
  }
}

TEST(DiscreteSampling, HypergeometricSymmetryReductions) {
  // marked > total/2 and draws > total/2 exercise both flip branches; the
  // support bound max(0, draws + marked - total) must hold exactly.
  rng gen(26);
  const std::uint64_t total = 10;
  const std::uint64_t marked = 7;
  const std::uint64_t draws = 9;
  for (int t = 0; t < 2000; ++t) {
    const auto x = sample_hypergeometric(total, marked, draws, gen);
    EXPECT_GE(x, draws + marked - total);
    EXPECT_LE(x, std::min(draws, marked));
  }
}

TEST(DiscreteSampling, HypergeometricBoundaries) {
  rng gen(27);
  EXPECT_EQ(sample_hypergeometric(50, 0, 20, gen), 0u);
  EXPECT_EQ(sample_hypergeometric(50, 50, 20, gen), 20u);
  EXPECT_EQ(sample_hypergeometric(50, 17, 50, gen), 17u);  // draws = total
  EXPECT_EQ(sample_hypergeometric(50, 17, 0, gen), 0u);
  EXPECT_THROW((void)sample_hypergeometric(10, 11, 5, gen), invariant_error);
  EXPECT_THROW((void)sample_hypergeometric(10, 5, 11, gen), invariant_error);
}

TEST(DiscreteSampling, HypergeometricMomentsAtHugeN) {
  rng gen(28);
  const std::uint64_t total = 3'000'000'000ull;
  const std::uint64_t marked = 1'000'000'000ull;
  const std::uint64_t draws = 10'000;
  running_summary s;
  for (int t = 0; t < 3000; ++t) {
    s.add(static_cast<double>(
        sample_hypergeometric(total, marked, draws, gen)));
  }
  const double mean = static_cast<double>(draws) / 3.0;
  const double sd = std::sqrt(static_cast<double>(draws) * (1.0 / 3.0) *
                              (2.0 / 3.0));
  EXPECT_NEAR(s.mean(), mean, 5.0 * sd / std::sqrt(3000.0));
}

TEST(DiscreteSampling, MultivariateHypergeometricJointChiSquare) {
  // Small census whose full joint support fits in one chi-square: index
  // each outcome (x0, x1, x2) as x0 * 16 + x1 against the closed-form PMF.
  rng gen(29);
  const std::vector<std::uint64_t> counts = {3, 2, 2};
  const std::uint64_t draws = 3;
  std::vector<std::uint64_t> observed(16 * 4, 0);
  std::vector<double> expected(16 * 4, 0.0);
  for (std::uint64_t x0 = 0; x0 <= 3; ++x0) {
    for (std::uint64_t x1 = 0; x1 <= 2; ++x1) {
      if (x0 + x1 > draws || draws - x0 - x1 > 2) continue;
      expected[x0 * 16 + x1] = multivariate_hypergeometric_pmf(
          counts, {x0, x1, draws - x0 - x1});
    }
  }
  constexpr int trials = 40000;
  std::vector<std::uint64_t> x(counts.size());
  for (int t = 0; t < trials; ++t) {
    sample_multivariate_hypergeometric(counts.data(), counts.size(), draws,
                                       gen, x.data());
    std::uint64_t total = 0;
    for (const auto xi : x) total += xi;
    ASSERT_EQ(total, draws);
    ++observed[x[0] * 16 + x[1]];
  }
  EXPECT_GT(chi_square_gof(observed, expected).p_value, 1e-4);
}

TEST(DiscreteSampling, MultivariateHypergeometricMarginals) {
  // Each coordinate of the joint draw is marginally univariate
  // hypergeometric.
  rng gen(30);
  const std::vector<std::uint64_t> counts = {12, 8, 5};
  const std::uint64_t draws = 10;
  std::vector<std::vector<std::uint64_t>> observed(
      3, std::vector<std::uint64_t>(draws + 1, 0));
  constexpr int trials = 30000;
  std::vector<std::uint64_t> sample(counts.size());
  for (int t = 0; t < trials; ++t) {
    sample_multivariate_hypergeometric(counts.data(), counts.size(), draws,
                                       gen, sample.data());
    for (std::size_t i = 0; i < 3; ++i) ++observed[i][sample[i]];
  }
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<double> expected(draws + 1);
    for (std::uint64_t x = 0; x <= draws; ++x) {
      expected[x] = hypergeometric_pmf(25, counts[i], draws, x);
    }
    EXPECT_GT(chi_square_gof(observed[i], expected).p_value, 1e-4)
        << "coordinate " << i;
  }
}

TEST(DiscreteSampling, MultivariateHypergeometricBoundaries) {
  rng gen(31);
  const std::vector<std::uint64_t> counts = {4, 0, 3};
  std::vector<std::uint64_t> out(counts.size(), 99);
  // draws = population returns the census itself.
  sample_multivariate_hypergeometric(counts.data(), 3, 7, gen, out.data());
  EXPECT_EQ(out, counts);
  // Zero draws overwrite the whole output slice with zeros.
  sample_multivariate_hypergeometric(counts.data(), 3, 0, gen, out.data());
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 0, 0}));
  // Single category: everything lands there.
  const std::uint64_t single = 9;
  std::uint64_t single_out = 0;
  sample_multivariate_hypergeometric(&single, 1, 4, gen, &single_out);
  EXPECT_EQ(single_out, 4u);
  EXPECT_THROW(
      sample_multivariate_hypergeometric(counts.data(), 3, 8, gen, out.data()),
      invariant_error);
  EXPECT_THROW(
      sample_multivariate_hypergeometric(counts.data(), 0, 0, gen, out.data()),
      invariant_error);
}

TEST(DiscreteSampling, MultinomialJointChiSquare) {
  rng gen(32);
  const std::vector<double> probs = {0.2, 0.3, 0.5};
  const std::uint64_t m = 6;
  std::vector<std::uint64_t> observed(8 * 8, 0);
  std::vector<double> expected(8 * 8, 0.0);
  for (std::uint64_t x0 = 0; x0 <= m; ++x0) {
    for (std::uint64_t x1 = 0; x0 + x1 <= m; ++x1) {
      expected[x0 * 8 + x1] =
          multinomial_pmf(m, probs, {x0, x1, m - x0 - x1});
    }
  }
  constexpr int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    const auto x = sample_multinomial(m, probs, gen);
    ++observed[x[0] * 8 + x[1]];
  }
  EXPECT_GT(chi_square_gof(observed, expected).p_value, 1e-4);
}

TEST(DiscreteSampling, MultinomialBoundaries) {
  rng gen(33);
  // Single category and zero-probability categories.
  EXPECT_EQ(sample_multinomial(5, {1.0}, gen),
            (std::vector<std::uint64_t>{5}));
  const auto x = sample_multinomial(20, {0.0, 1.0, 0.0}, gen);
  EXPECT_EQ(x, (std::vector<std::uint64_t>{0, 20, 0}));
  EXPECT_EQ(sample_multinomial(0, {0.5, 0.5}, gen),
            (std::vector<std::uint64_t>{0, 0}));
}

TEST(DiscreteSampling, TwoRunsAreBitIdentical) {
  // The determinism contract: equal seeds give equal draw sequences across
  // every sampler and both internal sampling paths.
  const auto draw_all = [](rng gen) {
    std::vector<std::uint64_t> log;
    const std::vector<std::uint64_t> counts = {500, 300, 200};
    std::vector<std::uint64_t> mvh(counts.size());
    for (int t = 0; t < 200; ++t) {
      log.push_back(sample_binomial(40, 0.3, gen));
      log.push_back(sample_binomial(5000, 0.4, gen));
      log.push_back(sample_hypergeometric(1000, 400, 6, gen));
      log.push_back(sample_hypergeometric(1000, 400, 300, gen));
      sample_multivariate_hypergeometric(counts.data(), counts.size(), 100,
                                         gen, mvh.data());
      log.insert(log.end(), mvh.begin(), mvh.end());
      const auto mn = sample_multinomial(100, {0.25, 0.25, 0.5}, gen);
      log.insert(log.end(), mn.begin(), mn.end());
    }
    return log;
  };
  EXPECT_EQ(draw_all(rng(777)), draw_all(rng(777)));
}

TEST(DiscreteSampling, PointerMultinomialIsDrawForDrawIdentical) {
  // The allocation-free multinomial form (the multibatch engine's rounds)
  // must consume the exact draw sequence of the vector form.
  rng gen_a(55);
  rng gen_b(55);
  const std::vector<double> probs = {0.1, 0.4, 0.2, 0.3};
  for (int t = 0; t < 200; ++t) {
    const auto mn = sample_multinomial(500, probs, gen_a);
    std::vector<std::uint64_t> mn_out(probs.size());
    sample_multinomial(500, probs.data(), probs.size(), gen_b,
                       mn_out.data());
    ASSERT_EQ(mn_out, mn);
  }
  // The generators themselves stay in lockstep.
  EXPECT_EQ(gen_a(), gen_b());
}

TEST(DiscreteSampling, CollisionRunSamplerTableMatchesTheBirthdayLaw) {
  // log S(j) = log n! - log (n-2j)! - j log(n(n-1)), computed directly via
  // lgamma, must match the incremental table within accumulated rounding.
  for (const std::uint64_t n : {2ull, 10ull, 1000ull, 123'456ull}) {
    const collision_run_sampler sampler(n);
    EXPECT_EQ(sampler.population_size(), n);
    const auto& table = sampler.log_survival();
    ASSERT_GE(table.size(), 2u);
    EXPECT_EQ(table[0], 0.0);
    EXPECT_EQ(table[1], 0.0);  // S(1) = 1: the first pair cannot collide
    const double lg_n1 = std::lgamma(static_cast<double>(n) + 1.0);
    const double log_pairs = std::log(static_cast<double>(n)) +
                             std::log(static_cast<double>(n - 1));
    for (std::size_t j = 0; j < table.size(); ++j) {
      const double direct =
          lg_n1 - std::lgamma(static_cast<double>(n - 2 * j) + 1.0) -
          static_cast<double>(j) * log_pairs;
      EXPECT_NEAR(table[j], direct, 1e-7) << "n=" << n << " j=" << j;
    }
    // The table covers the support or reaches below every level a 53-bit
    // uniform can ask for (log 2^-53 ~ -36.74).
    EXPECT_TRUE(table.size() == n / 2 + 1 || table.back() < -36.8);
  }
}

TEST(DiscreteSampling, CollisionRunSamplerMomentsAndSupport) {
  const std::uint64_t n = 10'000;
  const collision_run_sampler sampler(n);
  // E[J] = sum_j P(J > j), computable from the tabulated survival.
  double expected = 0.0;
  for (const double ls : sampler.log_survival()) expected += std::exp(ls);
  rng gen(66);
  running_summary s;
  constexpr int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t j = sampler.sample(gen);
    ASSERT_GE(j, 1u);
    ASSERT_LE(j, n / 2);
    s.add(static_cast<double>(j));
  }
  EXPECT_NEAR(s.mean(), expected,
              5.0 * s.stddev() / std::sqrt(static_cast<double>(trials)));
  // Determinism: equal seeds, equal draws.
  rng gen_a(67);
  rng gen_b(67);
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(sampler.sample(gen_a), sampler.sample(gen_b));
  }
}

}  // namespace
}  // namespace ppg
