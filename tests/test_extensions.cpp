// Tests for the paper-adjacent extensions: the two-way IGT discipline and
// population welfare.
#include <gtest/gtest.h>

#include <numeric>

#include "ppg/core/equilibrium.hpp"
#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(TwoWayIgt, BothGtftAgentsUpdate) {
  const igt_protocol proto(4, revision_discipline::two_way);
  const kernel_table kernel(proto);
  rng gen(701);
  // GTFT(1) initiates against GTFT(2): both see a GTFT partner -> both
  // increment.
  const auto [next_i, next_r] =
      kernel.sample(igt_encoding::gtft(1), igt_encoding::gtft(2), gen);
  EXPECT_EQ(next_i, igt_encoding::gtft(2));
  EXPECT_EQ(next_r, igt_encoding::gtft(3));
}

TEST(TwoWayIgt, ResponderUpdatesAgainstFixedInitiator) {
  const igt_protocol proto(4, revision_discipline::two_way);
  const kernel_table kernel(proto);
  rng gen(702);
  // AD initiates against GTFT(2): initiator fixed, responder decrements.
  const auto [next_i, next_r] =
      kernel.sample(igt_encoding::ad, igt_encoding::gtft(2), gen);
  EXPECT_EQ(next_i, igt_encoding::ad);
  EXPECT_EQ(next_r, igt_encoding::gtft(1));
  // AC initiates against GTFT(2): responder increments.
  const auto [i2, r2] =
      kernel.sample(igt_encoding::ac, igt_encoding::gtft(2), gen);
  EXPECT_EQ(i2, igt_encoding::ac);
  EXPECT_EQ(r2, igt_encoding::gtft(3));
}

TEST(TwoWayIgt, OneWayLeavesResponderUnchanged) {
  const igt_protocol proto(4, revision_discipline::one_way);
  const kernel_table kernel(proto);
  rng gen(703);
  const auto [next_i, next_r] =
      kernel.sample(igt_encoding::ad, igt_encoding::gtft(2), gen);
  EXPECT_EQ(next_r, igt_encoding::gtft(2));
}

TEST(TwoWayIgt, SameStationaryCensusAsOneWay) {
  // The two-way discipline doubles the per-agent update rate but keeps the
  // up/down ratio, so the stationary census is unchanged (Theorem 2.7's
  // multinomial). Compare time-averaged occupancies.
  const std::size_t k = 3;
  const abg_population pop{20, 20, 40};
  const auto expected = igt_stationary_probs(pop, k);
  for (const auto discipline :
       {revision_discipline::one_way, revision_discipline::two_way}) {
    const igt_protocol proto(k, discipline);
    const sim_spec spec(proto, make_igt_census(pop, k, 0),
                        pair_sampling::with_replacement);
    rng gen(704);
    const auto sim = spec.make_engine(engine_kind::agent, gen);
    sim->run(300'000);
    std::vector<double> occupancy(k, 0.0);
    const std::uint64_t samples = 400'000;
    for (std::uint64_t i = 0; i < samples; ++i) {
      sim->step();
      const auto census = gtft_level_counts(sim->census(), k);
      for (std::size_t j = 0; j < k; ++j) {
        occupancy[j] += static_cast<double>(census[j]);
      }
    }
    for (auto& x : occupancy) {
      x /= static_cast<double>(samples) * static_cast<double>(pop.num_gtft);
    }
    EXPECT_LT(total_variation(occupancy, expected), 0.02)
        << "discipline "
        << (discipline == revision_discipline::one_way ? "one-way" : "two-way");
  }
}

TEST(TwoWayIgt, ConvergesFasterThanOneWay) {
  // Hitting-time proxy: interactions until the mean level reaches 90% of
  // its stationary value. The two-way protocol should be roughly twice as
  // fast.
  const std::size_t k = 6;
  const abg_population pop{50, 50, 150};
  const auto probs = igt_stationary_probs(pop, k);
  double target = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    target += static_cast<double>(j) * probs[j];
  }
  target *= 0.9;

  auto hitting = [&](revision_discipline discipline, std::uint64_t seed) {
    const igt_protocol proto(k, discipline);
    const sim_spec spec(proto, make_igt_census(pop, k, 0),
                        pair_sampling::with_replacement);
    rng gen(seed);
    const auto sim = spec.make_engine(engine_kind::agent, gen);
    for (std::uint64_t t = 1; t <= 50'000'000; ++t) {
      sim->step();
      if (t % 32 != 0) continue;
      const auto census = gtft_level_counts(sim->census(), k);
      double mean_level = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        mean_level +=
            static_cast<double>(j) * static_cast<double>(census[j]);
      }
      mean_level /= static_cast<double>(pop.num_gtft);
      if (mean_level >= target) return t;
    }
    return std::uint64_t{50'000'000};
  };
  double one_way_total = 0.0;
  double two_way_total = 0.0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    one_way_total +=
        static_cast<double>(hitting(revision_discipline::one_way, 710 + s));
    two_way_total +=
        static_cast<double>(hitting(revision_discipline::two_way, 720 + s));
  }
  EXPECT_LT(two_way_total, 0.75 * one_way_total);
  EXPECT_GT(two_way_total, 0.25 * one_way_total);
}

TEST(Welfare, PureStrategiesKnownValues) {
  const rd_setting setting{3.0, 1.0, 0.5, 1.0};
  const std::size_t k = 2;
  const auto u = full_payoff_matrix(setting, k, 0.5);
  // Support: {AC, AD, g1, g2}. All-AD population earns 0.
  EXPECT_NEAR(population_welfare(u, {0.0, 1.0, 0.0, 0.0}), 0.0, 1e-12);
  // All-AC earns (b-c)/(1-delta) = 4 per agent.
  EXPECT_NEAR(population_welfare(u, {1.0, 0.0, 0.0, 0.0}), 4.0, 1e-9);
}

TEST(Welfare, MixturesInterpolateQuadratically) {
  const rd_setting setting{3.0, 1.0, 0.5, 1.0};
  const auto u = full_payoff_matrix(setting, 2, 0.5);
  // Donation game structure: welfare of an AC/AD mix is linear in the
  // cooperator fraction x: each round transfers b and costs c per
  // cooperating donor, so W = x(b - c)/(1 - delta).
  for (const double x : {0.25, 0.5, 0.75}) {
    const double w = population_welfare(u, {x, 1.0 - x, 0.0, 0.0});
    EXPECT_NEAR(w, x * 4.0, 1e-9) << "x = " << x;
  }
}

TEST(Welfare, GenerousPopulationOutEarnsStingyOne) {
  const rd_setting setting{3.0, 1.0, 0.9, 1.0};
  const std::size_t k = 4;
  const auto u = full_payoff_matrix(setting, k, 0.6);
  // All mass on the most generous level vs all mass on TFT (g = 0), in the
  // presence of noise-free openings both cooperate fully; with s1 = 1 both
  // achieve full cooperation, so compare against a population with some AD.
  std::vector<double> generous = {0.0, 0.2, 0.0, 0.0, 0.0, 0.8};
  std::vector<double> stingy = {0.0, 0.2, 0.8, 0.0, 0.0, 0.0};
  EXPECT_GT(population_welfare(u, generous) + 1e-9,
            population_welfare(u, stingy));
}

TEST(Welfare, InputValidation) {
  const rd_setting setting{3.0, 1.0, 0.5, 1.0};
  const auto u = full_payoff_matrix(setting, 2, 0.5);
  EXPECT_THROW((void)population_welfare(u, {0.5, 0.5}), invariant_error);
  EXPECT_THROW((void)population_welfare(u, {0.5, 0.2, 0.2, 0.2}),
               invariant_error);
}

}  // namespace
}  // namespace ppg
