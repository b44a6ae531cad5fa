// Tests for the population-protocol engine: populations, schedulers, and
// the simulator loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/population.hpp"
#include "ppg/pp/scheduler.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(Population, CountsMaintainedIncrementally) {
  population pop({0, 1, 1, 2, 2, 2}, 3);
  EXPECT_EQ(pop.size(), 6u);
  EXPECT_EQ(pop.counts(), (std::vector<std::uint64_t>{1, 2, 3}));
  pop.apply_interaction(0, 2);
  EXPECT_EQ(pop.counts(), (std::vector<std::uint64_t>{0, 2, 4}));
  EXPECT_EQ(pop.state_of(0), 2u);
  EXPECT_EQ(pop.states(), (std::vector<agent_state>{2, 1, 1, 2, 2, 2}));
}

TEST(Population, SelfAssignmentIsNoop) {
  population pop({0, 0}, 1);
  pop.apply_interaction(0, 0);
  EXPECT_EQ(pop.counts(), (std::vector<std::uint64_t>{2}));
}

TEST(Population, FractionsSumToOne) {
  const population pop({0, 1, 1, 1}, 2);
  const auto f = census_view(pop.counts(), pop.size()).fractions();
  EXPECT_DOUBLE_EQ(f[0], 0.25);
  EXPECT_DOUBLE_EQ(f[1], 0.75);
}

TEST(Population, BoundsChecked) {
  population pop({0, 1}, 2);
  EXPECT_THROW((void)pop.state_of(2), invariant_error);
  EXPECT_THROW(population({3}, 2), invariant_error);
  EXPECT_THROW(population({}, 2), invariant_error);
}

TEST(Scheduler, DistinctPairsAreDistinct) {
  rng gen(401);
  for (int i = 0; i < 5000; ++i) {
    const auto pair = sample_distinct_pair(5, gen);
    EXPECT_NE(pair.initiator, pair.responder);
    EXPECT_LT(pair.initiator, 5u);
    EXPECT_LT(pair.responder, 5u);
  }
}

TEST(Scheduler, DistinctPairsCoverAllOrderedPairs) {
  rng gen(402);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto pair = sample_distinct_pair(3, gen);
    seen.insert({pair.initiator, pair.responder});
  }
  EXPECT_EQ(seen.size(), 6u);  // 3 * 2 ordered pairs
}

TEST(Scheduler, DistinctPairsAreUniform) {
  rng gen(403);
  constexpr int trials = 120000;
  std::array<std::array<int, 4>, 4> counts{};
  for (int i = 0; i < trials; ++i) {
    const auto pair = sample_distinct_pair(4, gen);
    ++counts[pair.initiator][pair.responder];
  }
  const double expected = trials / 12.0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) {
        EXPECT_EQ(counts[i][j], 0);
      } else {
        EXPECT_NEAR(counts[i][j], expected, 5.0 * std::sqrt(expected));
      }
    }
  }
}

TEST(Scheduler, WithReplacementAllowsSelfPairs) {
  rng gen(404);
  bool saw_self = false;
  for (int i = 0; i < 1000; ++i) {
    const auto pair = sample_with_replacement_pair(3, gen);
    if (pair.initiator == pair.responder) saw_self = true;
  }
  EXPECT_TRUE(saw_self);
}

TEST(Scheduler, NeedsEnoughAgents) {
  rng gen(405);
  EXPECT_THROW((void)sample_distinct_pair(1, gen), invariant_error);
  EXPECT_NO_THROW((void)sample_with_replacement_pair(1, gen));
}

// A deterministic toy protocol for simulator tests: the initiator's value
// overwrites the responder's (one-way "infection" by larger state).
class max_protocol final : public protocol {
 public:
  [[nodiscard]] std::size_t num_states() const override { return 4; }
  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const override {
    return {{initiator, std::max(initiator, responder), 1.0}};
  }
};

TEST(Simulator, StepsAdvanceInteractionCount) {
  const max_protocol proto;
  simulation sim(proto, population({0, 1, 2, 3}, 4), rng(406));
  sim.run(10);
  EXPECT_EQ(sim.interactions(), 10u);
  EXPECT_DOUBLE_EQ(sim.parallel_time(), 2.5);
}

TEST(Simulator, MaxProtocolConvergesToMaximum) {
  const max_protocol proto;
  simulation sim(proto, population({0, 1, 2, 3}, 4), rng(407));
  const auto steps = sim.run_until(
      [](const census_view& c) { return c.count(3) == c.population_size(); },
      100000);
  EXPECT_LT(steps, 100000u);
  EXPECT_EQ(sim.census().count(3), 4u);
}

TEST(Simulator, RunUntilStopsImmediatelyWhenConverged) {
  const max_protocol proto;
  simulation sim(proto, population({3, 3, 3}, 4), rng(408));
  const auto steps = sim.run_until(
      [](const census_view& c) { return c.count(3) == c.population_size(); },
      1000);
  EXPECT_EQ(steps, 0u);
}

TEST(Simulator, CensusPredicateSeesPerAgentConvergence) {
  // Ported off the retired run_until_agents shim: every predicate the
  // per-agent view could express over an anonymous population is a census
  // predicate, evaluated identically on every engine.
  const max_protocol proto;
  simulation sim(proto, population({0, 1, 2, 3}, 4), rng(412));
  const auto steps = sim.run_until(
      [](const census_view& c) { return c.count(3) == c.population_size(); },
      100000);
  EXPECT_LT(steps, 100000u);
  EXPECT_EQ(sim.census().count(3), 4u);
}

TEST(Population, ApplyInteractionDebugChecksBounds) {
  population pop({0, 1}, 2);
#ifndef NDEBUG
  EXPECT_THROW(pop.apply_interaction(0, 5), invariant_error);
  EXPECT_THROW(pop.apply_interaction(7, 1), invariant_error);
#endif
  pop.apply_interaction(0, 1);
  EXPECT_EQ(pop.counts()[1], 2u);
}

TEST(CensusView, ViewsPopulationCounts) {
  const population pop({0, 1, 1, 2, 2, 2}, 3);
  const census_view view(pop.counts(), pop.size());
  EXPECT_EQ(view.population_size(), 6u);
  EXPECT_EQ(view.num_state_kinds(), 3u);
  EXPECT_EQ(view.count(2), 3u);
  EXPECT_DOUBLE_EQ(view.fraction(1), 1.0 / 3.0);
  EXPECT_THROW((void)view.count(3), invariant_error);
}

TEST(Simulator, SnapshotsAtRequestedCadence) {
  const max_protocol proto;
  simulation sim(proto, population({0, 1, 2, 3}, 4), rng(409));
  const auto snaps = sim.run_with_snapshots(25, 10);
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].interactions, 10u);
  EXPECT_EQ(snaps[1].interactions, 20u);
  EXPECT_EQ(snaps[2].interactions, 25u);
  for (const auto& snap : snaps) {
    std::uint64_t total = 0;
    for (const auto c : snap.counts) total += c;
    EXPECT_EQ(total, 4u);
  }
}

TEST(Simulator, WithReplacementSelfInteractionIsSafe) {
  const max_protocol proto;
  simulation sim(proto, population({2, 2}, 4), rng(410),
                 pair_sampling::with_replacement);
  sim.run(1000);  // must not corrupt counts on self pairs
  EXPECT_EQ(sim.census().count(2), 2u);
}

TEST(Simulator, RejectsTooSmallPopulations) {
  const max_protocol proto;
  EXPECT_THROW(simulation(proto, population({0}, 4), rng(411)),
               invariant_error);
}

TEST(Simulator, DefaultStateNames) {
  const max_protocol proto;
  EXPECT_EQ(proto.state_name(2), "s2");
}

}  // namespace
}  // namespace ppg
