// Tests for the k-IGT dynamics: the Definition 2.1 transition table, the
// population construction and the count-chain reduction (equation (5)).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(IgtEncoding, RoundTrip) {
  EXPECT_TRUE(igt_encoding::is_gtft(igt_encoding::gtft(0)));
  EXPECT_FALSE(igt_encoding::is_gtft(igt_encoding::ac));
  EXPECT_FALSE(igt_encoding::is_gtft(igt_encoding::ad));
  EXPECT_EQ(igt_encoding::level(igt_encoding::gtft(3)), 3u);
  EXPECT_THROW((void)igt_encoding::level(igt_encoding::ad), invariant_error);
}

TEST(IgtProtocol, Definition21TransitionTable) {
  const igt_protocol proto(4);
  const kernel_table kernel(proto);
  rng gen(601);
  // (i) g_j + AC -> Inc(g_j) + AC.
  EXPECT_EQ(kernel.sample(igt_encoding::gtft(1), igt_encoding::ac, gen).first,
            igt_encoding::gtft(2));
  // (ii) g_j + g_i -> Inc(g_j) + g_i for any i.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kernel.sample(igt_encoding::gtft(1), igt_encoding::gtft(i), gen)
                  .first,
              igt_encoding::gtft(2));
  }
  // (iii) g_j + AD -> Dec(g_j) + AD.
  EXPECT_EQ(kernel.sample(igt_encoding::gtft(2), igt_encoding::ad, gen).first,
            igt_encoding::gtft(1));
}

TEST(IgtProtocol, TruncationAtBoundaries) {
  const igt_protocol proto(3);
  const kernel_table kernel(proto);
  rng gen(602);
  // Inc at the top level stays.
  EXPECT_EQ(kernel.sample(igt_encoding::gtft(2), igt_encoding::ac, gen).first,
            igt_encoding::gtft(2));
  // Dec at the bottom level stays.
  EXPECT_EQ(kernel.sample(igt_encoding::gtft(0), igt_encoding::ad, gen).first,
            igt_encoding::gtft(0));
}

TEST(IgtProtocol, OneWayResponderNeverChanges) {
  const igt_protocol proto(4);
  const kernel_table kernel(proto);
  rng gen(603);
  for (agent_state init :
       {igt_encoding::ac, igt_encoding::ad, igt_encoding::gtft(1)}) {
    for (agent_state resp :
         {igt_encoding::ac, igt_encoding::ad, igt_encoding::gtft(2)}) {
      EXPECT_EQ(kernel.sample(init, resp, gen).second, resp);
    }
  }
}

TEST(IgtProtocol, FixedStrategiesNeverUpdate) {
  const igt_protocol proto(4);
  const kernel_table kernel(proto);
  rng gen(604);
  for (agent_state resp :
       {igt_encoding::ac, igt_encoding::ad, igt_encoding::gtft(0)}) {
    EXPECT_EQ(kernel.sample(igt_encoding::ac, resp, gen).first,
              igt_encoding::ac);
    EXPECT_EQ(kernel.sample(igt_encoding::ad, resp, gen).first,
              igt_encoding::ad);
  }
}

TEST(IgtProtocol, StateNames) {
  const igt_protocol proto(3);
  EXPECT_EQ(proto.state_name(igt_encoding::ac), "AC");
  EXPECT_EQ(proto.state_name(igt_encoding::ad), "AD");
  EXPECT_EQ(proto.state_name(igt_encoding::gtft(0)), "g1");
  EXPECT_EQ(proto.state_name(igt_encoding::gtft(2)), "g3");
}

TEST(IgtProtocol, RequiresAtLeastTwoLevels) {
  EXPECT_THROW(igt_protocol(1), invariant_error);
}

TEST(AbgPopulation, FractionsAndLambda) {
  const abg_population pop{20, 10, 70};
  EXPECT_EQ(pop.n(), 100u);
  EXPECT_DOUBLE_EQ(pop.alpha(), 0.2);
  EXPECT_DOUBLE_EQ(pop.beta(), 0.1);
  EXPECT_DOUBLE_EQ(pop.gamma(), 0.7);
  EXPECT_DOUBLE_EQ(pop.lambda(), 9.0);
}

TEST(AbgPopulation, FromFractionsPreservesN) {
  const auto pop = abg_population::from_fractions(101, 0.3, 0.3, 0.4);
  EXPECT_EQ(pop.n(), 101u);
  EXPECT_NEAR(pop.alpha(), 0.3, 0.02);
  EXPECT_NEAR(pop.beta(), 0.3, 0.02);
  EXPECT_NEAR(pop.gamma(), 0.4, 0.02);
}

TEST(AbgPopulation, FromFractionsValidation) {
  EXPECT_THROW((void)abg_population::from_fractions(100, 0.5, 0.5, 0.5),
               invariant_error);
  EXPECT_THROW((void)abg_population::from_fractions(100, -0.1, 0.6, 0.5),
               invariant_error);
}

TEST(AbgPopulation, EhrenfestReduction) {
  // Section 2.4: a = gamma (1 - beta), b = gamma beta, m = gamma n.
  const abg_population pop{10, 20, 70};
  const auto params = igt_ehrenfest_params(pop, 5);
  EXPECT_EQ(params.k, 5u);
  EXPECT_EQ(params.m, 70u);
  EXPECT_NEAR(params.a, 0.7 * 0.8, 1e-12);
  EXPECT_NEAR(params.b, 0.7 * 0.2, 1e-12);
  // lambda of the embedded chain equals (1 - beta)/beta.
  EXPECT_NEAR(params.lambda(), pop.lambda(), 1e-12);
}

TEST(IgtCensus, AcAdAndEveryGtftAgentAtOneLevel) {
  const abg_population pop{2, 3, 4};
  const auto counts = make_igt_census(pop, 5, 2);
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{2, 3, 0, 0, 4, 0, 0}));
  const census_view census(counts, pop.n());
  EXPECT_EQ(gtft_level_counts(census, 5),
            (std::vector<std::uint64_t>{0, 0, 4, 0, 0}));
}

TEST(IgtCensus, RejectsALevelAtOrPastK) {
  const abg_population pop{2, 3, 4};
  EXPECT_NO_THROW((void)make_igt_census(pop, 5, 4));
  EXPECT_THROW((void)make_igt_census(pop, 5, 5), invariant_error);
  EXPECT_THROW((void)make_igt_census(pop, 1, 0), invariant_error);
}

TEST(IgtCountChain, PreservesGtftCount) {
  const abg_population pop{10, 10, 30};
  igt_count_chain chain(pop, 4, 0);
  rng gen(605);
  chain.run(20000, gen);
  const auto& z = chain.counts();
  EXPECT_EQ(std::accumulate(z.begin(), z.end(), std::uint64_t{0}), 30u);
  EXPECT_EQ(chain.interactions(), 20000u);
}

TEST(IgtCountChain, RequiresAdAgents) {
  const abg_population pop{10, 0, 30};
  EXPECT_THROW(igt_count_chain(pop, 4, 0), invariant_error);
}

TEST(IgtCountChain, LevelDistributionNormalized) {
  const abg_population pop{5, 5, 20};
  igt_count_chain chain(pop, 3, 1);
  const auto mu = chain.level_distribution();
  EXPECT_TRUE(is_distribution(mu));
  EXPECT_DOUBLE_EQ(mu[1], 1.0);
}

TEST(IgtStationaryProbs, MatchesTheorem27Weights) {
  const abg_population pop{10, 25, 65};  // beta = 0.25, lambda = 3
  const auto p = igt_stationary_probs(pop, 4);
  EXPECT_NEAR(p[1] / p[0], 3.0, 1e-9);
  EXPECT_NEAR(p[2] / p[1], 3.0, 1e-9);
  EXPECT_NEAR(p[3] / p[2], 3.0, 1e-9);
}

TEST(IgtMixingBounds, OrderAndPositivity) {
  const abg_population pop{100, 100, 300};
  EXPECT_GT(igt_mixing_lower_bound(pop, 8), 0.0);
  EXPECT_GT(igt_mixing_upper_bound(pop, 8),
            igt_mixing_lower_bound(pop, 8));
}

// The reduction of Section 2.2.1: empirical transition frequencies of the
// agent-level protocol match equation (5)'s probabilities.
TEST(IgtReduction, AgentLevelTransitionFrequenciesMatchEquation5) {
  const std::size_t k = 3;
  const abg_population pop{30, 20, 50};
  const igt_protocol proto(k);
  // Freeze the census at a known state: all GTFT at level 1 (middle).
  // Use with-replacement sampling to match (5) exactly.
  const sim_spec spec(proto, make_igt_census(pop, k, 1),
                      pair_sampling::with_replacement);
  const auto kernel = std::make_shared<const kernel_table>(proto);
  rng gen(607);
  constexpr int trials = 400000;
  int up_moves = 0;
  int down_moves = 0;
  for (int i = 0; i < trials; ++i) {
    const auto sim = spec.make_engine(engine_kind::agent, gen, kernel);
    sim->step();
    const auto census = gtft_level_counts(sim->census(), k);
    if (census[2] == 1) ++up_moves;
    if (census[0] == 1) ++down_moves;
  }
  // Equation (5) with z_1 = m: up w.p. (z_1/m) gamma (1-beta) = 0.4,
  // down w.p. (z_1/m) gamma beta = 0.1.
  EXPECT_NEAR(up_moves / static_cast<double>(trials), 0.5 * 0.8, 0.005);
  EXPECT_NEAR(down_moves / static_cast<double>(trials), 0.5 * 0.2, 0.005);
}

}  // namespace
}  // namespace ppg
