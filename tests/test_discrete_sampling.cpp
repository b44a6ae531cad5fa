// The discrete-sampling layer: every sampler is validated against its
// closed-form PMF (chi-square goodness of fit plus moment checks on every
// branch: inversion and BTRS for binomials, the sequential path, inversion
// and HRUA for hypergeometrics, at the multibatch engine's round sizes and
// on both sides of each cutover), at its boundary parameters (p in {0, 1},
// draws = population, single category), and under the
// two-runs-bit-identical determinism contract the engines rely on. The
// rejection samplers' log-factorial arithmetic, and its folded form, are
// checked against independent references, and a compiled multinomial
// chain against the uncompiled split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ppg/stats/chi_square.hpp"
#include "ppg/stats/discrete_sampling.hpp"
#include "ppg/stats/distributions.hpp"
#include "ppg/stats/summary.hpp"
#include "ppg/util/error.hpp"
#include "test_helpers.hpp"

namespace ppg {
namespace {

using testing::draw_multinomial;

/// Chi-square p-value of `trials` draws of `sample` against `pmf` tabulated
/// on [lo, hi], a window wide enough (>= 12 standard deviations each side)
/// that the mass outside it, lumped into one last cell, is below double
/// rounding. Cells with expected count below 5 are pooled.
double windowed_chi_square_p(const std::function<std::uint64_t()>& sample,
                             const std::function<double(std::uint64_t)>& pmf,
                             std::uint64_t lo, std::uint64_t hi, int trials) {
  const std::size_t outside = static_cast<std::size_t>(hi - lo + 1);
  std::vector<double> expected(outside + 1);
  double inside = 0.0;
  for (std::uint64_t k = lo; k <= hi; ++k) {
    expected[k - lo] = pmf(k);
    inside += expected[k - lo];
  }
  expected[outside] = std::max(0.0, 1.0 - inside);
  std::vector<std::uint64_t> observed(outside + 1, 0);
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t k = sample();
    ++observed[k < lo || k > hi ? outside : static_cast<std::size_t>(k - lo)];
  }
  return chi_square_gof(observed, expected).p_value;
}

/// [mean - 12 sd, mean + 12 sd] clamped to [0, max].
std::pair<std::uint64_t, std::uint64_t> window(double mean, double sd,
                                               std::uint64_t max) {
  const double lo = std::max(0.0, std::floor(mean - 12.0 * sd));
  const double hi =
      std::min(static_cast<double>(max), std::ceil(mean + 12.0 * sd));
  return {static_cast<std::uint64_t>(lo), static_cast<std::uint64_t>(hi)};
}

TEST(DiscreteSampling, LogFactorialMatchesLogGamma) {
  for (const std::uint64_t k : {0ull, 1ull, 125ull, 126ull, 127ull, 10'000ull,
                                100'000'000ull, 3'000'000'000ull}) {
    const double reference = log_gamma(static_cast<double>(k) + 1.0);
    EXPECT_NEAR(log_factorial(k), reference, 1e-13 * std::fabs(reference))
        << "k=" << k;
  }
}

TEST(DiscreteSampling, LogFactorialRatioMatchesLongDoubleSum) {
  // log(a!/b!) = sum of log i over (min, max], signed, in long double: an
  // independent reference for the cancellation-free ratio the rejection
  // samplers' acceptance tests are built from.
  for (const std::uint64_t b : {10ull, 125ull, 1'000'000ull, 100'000'000ull,
                                3'000'000'000ull}) {
    for (const long long d : {-1000ll, -999ll, -127ll, -40ll, -3ll, -1ll, 0ll,
                              1ll, 2ll, 17ll, 126ll, 500ll, 1000ll}) {
      if (d < 0 && static_cast<std::uint64_t>(-d) > b) continue;
      const std::uint64_t a = d < 0 ? b - static_cast<std::uint64_t>(-d)
                                    : b + static_cast<std::uint64_t>(d);
      long double reference = 0.0L;
      for (std::uint64_t i = std::min(a, b) + 1; i <= std::max(a, b); ++i) {
        reference += std::log(static_cast<long double>(i));
      }
      if (a < b) reference = -reference;
      const auto ref = static_cast<double>(reference);
      EXPECT_NEAR(log_factorial_ratio(a, b), ref, 1e-13 * std::fabs(ref))
          << "a=" << a << " b=" << b;
    }
  }
}

/// A log-uniform integer in [lo, hi].
std::uint64_t log_uniform(rng& gen, double lo, double hi) {
  return static_cast<std::uint64_t>(
      std::exp(std::log(lo) + gen.next_double() * std::log(hi / lo)));
}

/// mode + round(z sd) for z uniform in [-12, 12], clamped to [0, max].
std::uint64_t near_mode(rng& gen, std::uint64_t mode, double sd,
                        std::uint64_t max) {
  const double x = std::round(static_cast<double>(mode) +
                              (24.0 * gen.next_double() - 12.0) * sd);
  return static_cast<std::uint64_t>(
      std::clamp(x, 0.0, static_cast<double>(max)));
}

TEST(DiscreteSampling, FoldedHypergeometricRatioMatchesFourTerms) {
  // HRUA's wide-hat test folds the four log-factorial ratios' d log b
  // parts into (k - mode) times one log. Over 10^5 random wide shapes
  // (variance >= 144, total up to 3e9, draws up to 2*10^4 as a multibatch
  // round at n ~ 10^9 draws them) and candidates within 12 sd of the mode,
  // it stays within 1e-12 (relative above 1) of the four-term sum. The
  // tolerance is the reference's: each of its four d log b terms rounds
  // alone, ~10x the fold's error (DESIGN.md §8), so shapes far wider than
  // the engine's would exceed it on the reference's side.
  rng gen(31);
  int checked = 0;
  while (checked < 100'000) {
    const std::uint64_t total = log_uniform(gen, 2e3, 3e9);
    const std::uint64_t marked =
        1 + log_uniform(gen, 1.0, static_cast<double>(total / 2));
    const std::uint64_t draws = 1 + log_uniform(gen, 1.0, 2e4);
    if (2 * marked > total || 2 * draws > total) continue;
    const double nf = static_cast<double>(total);
    const double p = static_cast<double>(marked) / nf;
    const double mf = static_cast<double>(draws);
    const double variance = (nf - mf) * mf * p * (1.0 - p) / (nf - 1.0);
    if (variance < 144.0) continue;
    const std::uint64_t rest = total - marked - draws;
    const auto mode = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(draws + 1) * (marked + 1) /
        (static_cast<unsigned __int128>(total) + 2));
    const hypergeometric_log_ratio folded(marked, draws, rest, mode);
    const std::uint64_t k =
        near_mode(gen, mode, std::sqrt(variance), std::min(marked, draws));
    const double reference =
        -(log_factorial_ratio(k, mode) +
          log_factorial_ratio(marked - k, marked - mode) +
          log_factorial_ratio(draws - k, draws - mode) +
          log_factorial_ratio(rest + k, rest + mode));
    const double error = std::fabs(folded(k) - reference) /
                         std::max(1.0, std::fabs(reference));
    ASSERT_LE(error, 1e-12) << total << "/" << marked << "/" << draws
                            << " k=" << k << " mode=" << mode;
    ++checked;
  }
}

TEST(DiscreteSampling, FoldedBinomialRatioMatchesTwoTerms) {
  // BTRS's tail test folds log(p/(1-p)) and the two ratios' d log b parts
  // into (k - mode) times one log. The same check over 10^5 random shapes
  // of variance 100 to 5000 with n up to 3e9; below variance 160 the
  // sampler walks instead, so those shapes check the fold's arithmetic
  // only, including candidates under log_factorial's table.
  rng gen(32);
  int checked = 0;
  while (checked < 100'000) {
    const std::uint64_t n = log_uniform(gen, 4e2, 3e9);
    const double p = 0.5 * std::exp(gen.next_double() * std::log(1e-9));
    const double nf = static_cast<double>(n);
    const double variance = nf * p * (1.0 - p);
    if (variance < 100.0 || variance > 5e3) continue;
    const std::uint64_t mode =
        std::min(n, static_cast<std::uint64_t>((nf + 1.0) * p));
    const binomial_log_ratio folded(n, p, mode);
    const std::uint64_t k = near_mode(gen, mode, std::sqrt(variance), n);
    const double reference =
        (static_cast<double>(k) - static_cast<double>(mode)) *
            std::log(p / (1.0 - p)) -
        (log_factorial_ratio(k, mode) + log_factorial_ratio(n - k, n - mode));
    const double error = std::fabs(folded(k) - reference) /
                         std::max(1.0, std::fabs(reference));
    ASSERT_LE(error, 1e-12) << "n=" << n << " p=" << p << " k=" << k;
    ++checked;
  }
}

TEST(DiscreteSampling, BinomialChiSquareSmallRegime) {
  // n * p = 12, below the inversion/BTRS cutover of 14: inversion, walking
  // most of a short support (n = 40).
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

TEST(DiscreteSampling, BinomialChiSquareBtrsRegime) {
  // n * p far above the threshold: BTRS, mostly in its squeeze.
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
  const double p = 1e-6;  // mean 3000, far into the BTRS path
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
  // draws <= 8 takes the exact sequential path, larger draws HRUA;
  // validate both against the closed-form PMF.
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

TEST(DiscreteSampling, BinomialChiSquareAtEveryBranch) {
  // Inversion just below the cutover at mean 14, BTRS just above it and at
  // mean 32, a multibatch hawk-dove cell, the n = 10^8 scale, and the
  // p > 1/2 flip into BTRS; then inversion at the two-way logit round's
  // conditional binomials (~790 pairs per partner law, means 2, 5 and 9),
  // at n = 10^8 with mean 5, where P(0) = exp(n log1p(-p)) carries the
  // whole n, and the p > 1/2 flip into inversion (mean 5 of failures).
  // Then BTRS on the two sides of its tail test's walk cutover at variance
  // 160 (159 walks, 161 takes the folded logs) at n = 1600 and n = 10^8,
  // where candidates 3 sd below the mode fall under log_factorial's table
  // and take the generic ratios; and the hawk-dove partner law (n 3133,
  // p 0.27, variance 617: the fold).
  struct binomial_case {
    std::uint64_t n;
    double p;
  };
  std::uint64_t seed = 100;
  for (const binomial_case c : {binomial_case{1000, 0.0139},
                                binomial_case{1000, 0.0141},
                                binomial_case{3200, 0.01},
                                binomial_case{1500, 0.3},
                                binomial_case{100'000'000, 0.5},
                                binomial_case{1000, 0.97},
                                binomial_case{790, 2.0 / 790.0},
                                binomial_case{790, 5.0 / 790.0},
                                binomial_case{790, 9.0 / 790.0},
                                binomial_case{100'000'000, 5e-8},
                                binomial_case{1000, 0.995},
                                binomial_case{1600, 0.111896},
                                binomial_case{1600, 0.113509},
                                binomial_case{100'000'000, 1.59e-6},
                                binomial_case{100'000'000, 1.61e-6},
                                binomial_case{3133, 0.27}}) {
    rng gen(++seed);
    const double mean = static_cast<double>(c.n) * c.p;
    const auto [lo, hi] = window(mean, std::sqrt(mean * (1.0 - c.p)), c.n);
    const double p_value = windowed_chi_square_p(
        [&] { return sample_binomial(c.n, c.p, gen); },
        [&](std::uint64_t k) { return binomial_pmf(c.n, c.p, k); }, lo, hi,
        200'000);
    EXPECT_GT(p_value, 1e-4) << "n=" << c.n << " p=" << c.p;
  }
}

TEST(DiscreteSampling, HypergeometricChiSquareAtMultibatchScale) {
  // HRUA at the multibatch engine's draws: a hawk-dove pool split at
  // n = 10^8 and one of its matching rows, an IGT pool split at n = 10^6,
  // HRUA's smallest draw count (9), and a hat cut by the support
  // (marked = 13 < draws). Then inversion at igt_ensemble's initiator draw
  // (617 draws from n = 10^6) over its stationary census's small GTFT
  // levels 32, 128 and 513, the same draw through the marked/unmarked
  // flip, and means just below 1 (inversion) and just above it (HRUA).
  // Then HRUA at igt_ensemble's middle GTFT levels 2051, 8203 and 131252
  // (sd 1.1, 2.2 and 8.4: the narrow-hat pmf-ratio walk) and on the two
  // sides of the walk's variance cutover at 144 (sd 11.95 walks, sd 12.04
  // takes the folded Stirling ratios). Last, two more shapes of the fold
  // besides the hawk-dove splits above (sd 40 and 20): the q = 8 logit
  // round's first initiator split at n = 10^8 (sd 26), and the 3e9 extreme
  // (sd 16.6), whose far-left candidates fall under log_factorial's table.
  struct hypergeometric_case {
    std::uint64_t total;
    std::uint64_t marked;
    std::uint64_t draws;
  };
  std::uint64_t seed = 200;
  for (const hypergeometric_case c :
       {hypergeometric_case{100'000'000, 50'000'000, 6300},
        hypergeometric_case{6300, 3150, 3150},
        hypergeometric_case{1'000'000, 100'000, 630},
        hypergeometric_case{5000, 2500, 9},
        hypergeometric_case{200, 13, 90},
        hypergeometric_case{1'000'000, 32, 617},
        hypergeometric_case{1'000'000, 128, 617},
        hypergeometric_case{1'000'000, 513, 617},
        hypergeometric_case{1'000'000, 1'000'000 - 128, 617},
        hypergeometric_case{1'000'000, 999, 1000},
        hypergeometric_case{1'000'000, 1001, 1000},
        hypergeometric_case{1'000'000, 2051, 617},
        hypergeometric_case{1'000'000, 8203, 617},
        hypergeometric_case{1'000'000, 131'252, 617},
        hypergeometric_case{1'000'000, 500'000, 572},
        hypergeometric_case{1'000'000, 500'000, 580},
        hypergeometric_case{100'000'000, 12'500'000, 6267},
        hypergeometric_case{3'000'000'000, 1'500'000'000, 1100}}) {
    rng gen(++seed);
    const double nf = static_cast<double>(c.total);
    const double p = static_cast<double>(c.marked) / nf;
    const double mf = static_cast<double>(c.draws);
    const double sd = std::sqrt(mf * p * (1.0 - p) * (nf - mf) / (nf - 1.0));
    const auto [lo, hi] = window(mf * p, sd, std::min(c.marked, c.draws));
    const double p_value = windowed_chi_square_p(
        [&] { return sample_hypergeometric(c.total, c.marked, c.draws, gen); },
        [&](std::uint64_t x) {
          return hypergeometric_pmf(c.total, c.marked, c.draws, x);
        },
        lo, hi, 200'000);
    EXPECT_GT(p_value, 1e-4) << c.total << "/" << c.marked << "/" << c.draws;
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
    const auto x = draw_multinomial(m, probs, gen);
    ++observed[x[0] * 8 + x[1]];
  }
  EXPECT_GT(chi_square_gof(observed, expected).p_value, 1e-4);
}

TEST(DiscreteSampling, MultinomialBoundaries) {
  rng gen(33);
  // Single category and zero-probability categories.
  EXPECT_EQ(draw_multinomial(5, {1.0}, gen),
            (std::vector<std::uint64_t>{5}));
  const auto x = draw_multinomial(20, {0.0, 1.0, 0.0}, gen);
  EXPECT_EQ(x, (std::vector<std::uint64_t>{0, 20, 0}));
  EXPECT_EQ(draw_multinomial(0, {0.5, 0.5}, gen),
            (std::vector<std::uint64_t>{0, 0}));
}

TEST(DiscreteSampling, MultinomialChainDrawsAsTheUncompiledSplit) {
  // A compiled chain must give sample_multinomial's draws bit for bit:
  // laws that sum to 1, a little under and over it (the remaining mass
  // reaches <= 0 before the last category), zeros inside, one category,
  // and an 8-way logit-like law, at m from 0 past BTRS's range.
  const std::vector<std::vector<double>> laws = {
      {0.25, 0.25, 0.5},
      {0.1, 0.2, 0.3, 0.4 - 1e-10},
      {0.6, 0.4 + 1e-10, 0.0},
      {0.0, 0.7, 0.0, 0.3},
      {1.0},
      {0.02, 0.31, 0.005, 0.12, 0.2, 0.09, 0.055, 0.2}};
  for (std::size_t l = 0; l < laws.size(); ++l) {
    const std::vector<double>& law = laws[l];
    std::vector<double> chain(law.size());
    multinomial_chain(law.data(), law.size(), chain.data());
    EXPECT_EQ(chain.back(), 1.0);
    rng split_gen(40 + l);
    rng chain_gen(40 + l);
    std::vector<std::uint64_t> split(law.size());
    std::vector<std::uint64_t> chained(law.size());
    for (const std::uint64_t m : {0ull, 1ull, 7ull, 40ull, 1600ull,
                                  100'000ull, 3'000'000'000ull}) {
      for (int t = 0; t < 50; ++t) {
        sample_multinomial(m, law.data(), law.size(), split_gen,
                           split.data());
        sample_multinomial_chain(m, chain.data(), law.size(), chain_gen,
                                 chained.data());
        ASSERT_EQ(split, chained) << "law " << l << " m=" << m;
      }
    }
  }
}

TEST(DiscreteSampling, TwoRunsAreBitIdentical) {
  // The determinism contract: equal seeds give equal draw sequences across
  // every sampler and every internal sampling path.
  const auto draw_all = [](rng gen) {
    std::vector<std::uint64_t> log;
    const std::vector<std::uint64_t> counts = {500, 300, 200};
    std::vector<std::uint64_t> mvh(counts.size());
    for (int t = 0; t < 200; ++t) {
      log.push_back(sample_binomial(40, 0.3, gen));
      log.push_back(sample_binomial(5000, 0.4, gen));
      log.push_back(sample_hypergeometric(1000, 400, 6, gen));
      log.push_back(sample_hypergeometric(1'000'000, 128, 617, gen));
      log.push_back(sample_hypergeometric(1000, 400, 300, gen));
      sample_multivariate_hypergeometric(counts.data(), counts.size(), 100,
                                         gen, mvh.data());
      log.insert(log.end(), mvh.begin(), mvh.end());
      const auto mn = draw_multinomial(100, {0.25, 0.25, 0.5}, gen);
      log.insert(log.end(), mn.begin(), mn.end());
    }
    return log;
  };
  EXPECT_EQ(draw_all(rng(777)), draw_all(rng(777)));
}

/// P(J > j) for j = 0.. by the birthday product in long double, until it
/// falls below 2^-80 or the support ends: an oracle independent of the
/// sampler's double-precision table.
std::vector<long double> reference_survival(std::uint64_t n) {
  const long double pairs =
      static_cast<long double>(n) * static_cast<long double>(n - 1);
  std::vector<long double> s = {1.0L};
  for (std::uint64_t j = 0; j < n / 2 && s.back() > 0x1.0p-80L; ++j) {
    const auto fresh = static_cast<long double>(n - 2 * j);
    s.push_back(s.back() * (fresh * (fresh - 1.0L) / pairs));
  }
  return s;
}

TEST(DiscreteSampling, CollisionRunSamplerTableMatchesTheBirthdayLaw) {
  // Every entry within 1e-12 relative of the long-double product, up to
  // the 3e9 cap; the table ends at the support's end or at its first entry
  // below 2^-53, the smallest positive uniform.
  for (const std::uint64_t n : {2ull, 10ull, 1000ull, 123'456ull,
                                100'000'000ull, 3'000'000'000ull}) {
    const collision_run_sampler sampler(n);
    EXPECT_EQ(sampler.population_size(), n);
    const auto& table = sampler.survival();
    const auto reference = reference_survival(n);
    ASSERT_GE(table.size(), 2u);
    ASSERT_LE(table.size(), reference.size());
    EXPECT_EQ(table[0], 1.0);
    EXPECT_EQ(table[1], 1.0);  // S(1) = 1: the first pair cannot collide
    double worst = 0.0;
    for (std::size_t j = 0; j < table.size(); ++j) {
      const long double error =
          (static_cast<long double>(table[j]) - reference[j]) / reference[j];
      worst = std::max(worst, static_cast<double>(std::fabs(error)));
    }
    EXPECT_LE(worst, 1e-12) << "n=" << n;
    constexpr double smallest_uniform = 0x1.0p-53;
    if (table.size() != n / 2 + 1) {
      EXPECT_LT(table.back(), smallest_uniform) << "n=" << n;
      EXPECT_GE(table[table.size() - 2], smallest_uniform) << "n=" << n;
    }
  }
}

TEST(DiscreteSampling, CollisionRunSamplerCapsNBeforeAllocating) {
  // n(n-1) must be exact in 64 bits; the check runs before the O(sqrt(n))
  // table is reserved.
  EXPECT_THROW(collision_run_sampler(3'000'000'001ull), invariant_error);
  EXPECT_THROW(collision_run_sampler(1'000'000'000'000'000ull),
               invariant_error);
  EXPECT_THROW(collision_run_sampler(1), invariant_error);
  EXPECT_EQ(collision_run_sampler(3'000'000'000ull).population_size(),
            3'000'000'000ull);
}

TEST(DiscreteSampling, CollisionRunSamplerGuideEdgesMatchALinearScan) {
  // invert(u) = max{j : S(j) >= u} at every bucket edge u = b/G, at every
  // table entry, and at their floating-point neighbours: exactly the
  // values where a bracket one bucket off, or a strict comparison, would
  // answer differently. The reference sweeps the table once over the
  // probes in decreasing order.
  for (const std::uint64_t n :
       {2ull, 3ull, 10ull, 10'000ull, 100'000'000ull}) {
    const collision_run_sampler sampler(n);
    const auto& table = sampler.survival();
    const auto buckets = static_cast<double>(sampler.guide_buckets());
    std::vector<double> probes = {std::nextafter(0.0, 1.0),
                                  std::nextafter(1.0, 0.0)};
    const auto add_around = [&probes](double u) {
      for (const double v :
           {std::nextafter(u, 0.0), u, std::nextafter(u, 1.0)}) {
        if (v > 0.0 && v < 1.0) probes.push_back(v);
      }
    };
    for (std::size_t b = 1; b < sampler.guide_buckets(); ++b) {
      add_around(static_cast<double>(b) / buckets);
    }
    for (const double s : table) add_around(s);
    std::sort(probes.begin(), probes.end(), std::greater<>());
    std::size_t j = 0;
    for (const double u : probes) {
      while (j + 1 < table.size() && table[j + 1] >= u) ++j;
      ASSERT_EQ(sampler.invert(u), j) << "n=" << n << " u=" << u;
    }
  }
}

TEST(DiscreteSampling, CollisionRunSamplerChiSquareAgainstTheBirthdayLaw) {
  // 10^6 draws against P(J = j) = S(j) - S(j+1) from the long-double
  // product, the mass past its end in one last cell; cells below 5
  // expected draws are pooled.
  for (const std::uint64_t n : {10'000ull, 100'000'000ull}) {
    const collision_run_sampler sampler(n);
    const auto survival = reference_survival(n);
    std::vector<double> expected(survival.size() + 1, 0.0);
    for (std::size_t j = 0; j + 1 < survival.size(); ++j) {
      expected[j] = static_cast<double>(survival[j] - survival[j + 1]);
    }
    expected[survival.size() - 1] = static_cast<double>(survival.back());
    std::vector<std::uint64_t> observed(expected.size(), 0);
    rng gen(65 + n);
    constexpr int trials = 1'000'000;
    for (int t = 0; t < trials; ++t) {
      const std::uint64_t j = sampler.sample(gen);
      ASSERT_GE(j, 1u);
      ASSERT_LE(j, n / 2);
      ++observed[std::min<std::size_t>(j, expected.size() - 1)];
    }
    EXPECT_GT(chi_square_gof(observed, expected).p_value, 1e-4) << "n=" << n;
  }
}

TEST(DiscreteSampling, CollisionRunSamplerMomentsAndSupport) {
  const std::uint64_t n = 10'000;
  const collision_run_sampler sampler(n);
  // E[J] = sum_j P(J > j), computable from the tabulated survival.
  double expected = 0.0;
  for (const double s : sampler.survival()) expected += s;
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
