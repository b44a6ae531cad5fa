// Tests for the (k, a, b, m)-Ehrenfest process simulations: parameter
// validation, conservation laws, the equivalence of the count-chain and
// coordinate-walk representations, and convergence of long-run occupation
// to the Theorem 2.4 stationary law.
#include <gtest/gtest.h>

#include <numeric>

#include "ppg/ehrenfest/coordinate_walk.hpp"
#include "ppg/ehrenfest/process.hpp"
#include "ppg/ehrenfest/stationary.hpp"
#include "ppg/stats/chi_square.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(EhrenfestParams, Validity) {
  EXPECT_TRUE((ehrenfest_params{2, 0.3, 0.3, 5}).valid());
  EXPECT_FALSE((ehrenfest_params{1, 0.3, 0.3, 5}).valid());   // k < 2
  EXPECT_FALSE((ehrenfest_params{3, 0.0, 0.3, 5}).valid());   // a = 0
  EXPECT_FALSE((ehrenfest_params{3, 0.6, 0.6, 5}).valid());   // a + b > 1
  EXPECT_FALSE((ehrenfest_params{3, 0.3, 0.3, 0}).valid());   // m = 0
  EXPECT_DOUBLE_EQ((ehrenfest_params{3, 0.4, 0.2, 5}).lambda(), 2.0);
}

TEST(EhrenfestProcess, ConservesBallCount) {
  const ehrenfest_params params{4, 0.3, 0.2, 20};
  auto process = ehrenfest_process::at_corner(params, false);
  rng gen(201);
  for (int i = 0; i < 5000; ++i) {
    process.step(gen);
    const auto& counts = process.counts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
              params.m);
  }
  EXPECT_EQ(process.time(), 5000u);
}

TEST(EhrenfestProcess, CornerStarts) {
  const ehrenfest_params params{3, 0.25, 0.25, 7};
  const auto bottom = ehrenfest_process::at_corner(params, false);
  EXPECT_EQ(bottom.counts()[0], 7u);
  const auto top = ehrenfest_process::at_corner(params, true);
  EXPECT_EQ(top.counts()[2], 7u);
}

TEST(EhrenfestProcess, RejectsBadInitialCounts) {
  const ehrenfest_params params{3, 0.25, 0.25, 7};
  EXPECT_THROW(ehrenfest_process(params, {3, 3}), invariant_error);
  EXPECT_THROW(ehrenfest_process(params, {3, 3, 3}), invariant_error);
}

TEST(CoordinateWalk, CountsTrackValues) {
  const ehrenfest_params params{5, 0.3, 0.3, 12};
  coordinate_walk walk(params, 2);
  rng gen(202);
  walk.run(3000, gen);
  std::vector<std::uint64_t> manual(params.k, 0);
  for (const auto v : walk.values()) {
    ++manual[v];
  }
  EXPECT_EQ(manual, walk.counts());
}

TEST(CoordinateWalk, RejectsOutOfRangeValues) {
  const ehrenfest_params params{3, 0.3, 0.3, 2};
  EXPECT_THROW(coordinate_walk(params, std::vector<std::uint32_t>{0, 3}),
               invariant_error);
  EXPECT_THROW(coordinate_walk(params, std::vector<std::uint32_t>{0}),
               invariant_error);
}

TEST(CoordinateWalk, IdenticalLawToCountChain) {
  // Both representations must produce the same distribution of counts after
  // a fixed time horizon (they are the same Markov chain): compare long-run
  // occupancy of urn 0 for a small instance.
  const ehrenfest_params params{3, 0.2, 0.3, 6};
  rng gen_a(203);
  rng gen_b(204);
  auto process = ehrenfest_process::at_corner(params, false);
  coordinate_walk walk(params, 0);
  const int burn = 20000;
  const int samples = 60000;
  for (int i = 0; i < burn; ++i) process.step(gen_a);
  walk.run(burn, gen_b);
  double occ_process = 0.0;
  double occ_walk = 0.0;
  for (int i = 0; i < samples; ++i) {
    process.step(gen_a);
    walk.step(gen_b);
    occ_process += static_cast<double>(process.counts()[0]);
    occ_walk += static_cast<double>(walk.counts()[0]);
  }
  occ_process /= samples;
  occ_walk /= samples;
  EXPECT_NEAR(occ_process, occ_walk, 0.1);
}

TEST(EhrenfestStationary, ProbsAreGeometric) {
  const ehrenfest_params params{4, 0.4, 0.2, 10};
  const auto p = ehrenfest_stationary_probs(params);
  EXPECT_TRUE(is_distribution(p));
  EXPECT_NEAR(p[1] / p[0], 2.0, 1e-12);
  EXPECT_NEAR(p[3] / p[2], 2.0, 1e-12);
}

TEST(EhrenfestStationary, MeanSumsToM) {
  const ehrenfest_params params{5, 0.25, 0.35, 17};
  const auto mean = ehrenfest_stationary_mean(params);
  double total = 0.0;
  for (const double x : mean) total += x;
  EXPECT_NEAR(total, 17.0, 1e-9);
}

TEST(EhrenfestStationary, SamplerMatchesPmfMarginals) {
  const ehrenfest_params params{3, 0.3, 0.15, 12};
  rng gen(205);
  const auto probs = ehrenfest_stationary_probs(params);
  std::vector<double> occupancy(params.k, 0.0);
  constexpr int trials = 30000;
  for (int i = 0; i < trials; ++i) {
    const auto sample = sample_ehrenfest_stationary(params, gen);
    for (std::size_t j = 0; j < params.k; ++j) {
      occupancy[j] += static_cast<double>(sample[j]);
    }
  }
  for (std::size_t j = 0; j < params.k; ++j) {
    EXPECT_NEAR(occupancy[j] / (trials * static_cast<double>(params.m)),
                probs[j], 0.01);
  }
}

// Theorem 2.4, simulated: the per-ball marginal occupancy under the
// long-run count chain matches the geometric stationary probabilities.
class StationaryOccupancySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(StationaryOccupancySweep, LongRunOccupancyMatchesTheorem24) {
  const auto [k, lambda] = GetParam();
  const double b = 0.2;
  const ehrenfest_params params{k, lambda * b, b, 30};
  ASSERT_TRUE(params.valid());
  rng gen(206 + k);
  coordinate_walk walk(params, 0);
  const std::uint64_t burn = 300ull * params.m * k;
  walk.run(burn, gen);
  std::vector<double> occupancy(k, 0.0);
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) {
    walk.step(gen);
    for (std::size_t j = 0; j < k; ++j) {
      occupancy[j] += static_cast<double>(walk.counts()[j]);
    }
  }
  std::vector<double> empirical(k);
  for (std::size_t j = 0; j < k; ++j) {
    empirical[j] = occupancy[j] / (samples * static_cast<double>(params.m));
  }
  const auto expected = ehrenfest_stationary_probs(params);
  EXPECT_LT(total_variation(empirical, expected), 0.02)
      << "k=" << k << " lambda=" << lambda;
}

INSTANTIATE_TEST_SUITE_P(
    KLambda, StationaryOccupancySweep,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3},
                                         std::size_t{6}),
                       ::testing::Values(0.5, 1.0, 2.0)));

TEST(EhrenfestStationary, PmfConsistentWithProbs) {
  const ehrenfest_params params{3, 0.3, 0.3, 4};
  // Sum of the PMF over the whole simplex is 1.
  double total = 0.0;
  for (std::uint64_t x = 0; x <= 4; ++x) {
    for (std::uint64_t y = 0; x + y <= 4; ++y) {
      total += ehrenfest_stationary_pmf(params, {x, y, 4 - x - y});
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

}  // namespace
}  // namespace ppg
