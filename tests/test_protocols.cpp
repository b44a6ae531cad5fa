// Tests for the classic protocol substrates: approximate majority, leader
// election, and rumor spreading.
#include <gtest/gtest.h>

#include <cmath>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/protocols/approximate_majority.hpp"
#include "ppg/pp/protocols/leader_election.hpp"
#include "ppg/pp/protocols/rumor.hpp"
#include "ppg/stats/summary.hpp"

namespace ppg {
namespace {

population majority_population(std::size_t x, std::size_t y,
                               std::size_t blank) {
  std::vector<agent_state> states;
  states.insert(states.end(), x, approximate_majority_protocol::state_x);
  states.insert(states.end(), y, approximate_majority_protocol::state_y);
  states.insert(states.end(), blank,
                approximate_majority_protocol::state_blank);
  return population(std::move(states), 3);
}

TEST(ApproximateMajority, TransitionTable) {
  const approximate_majority_protocol proto;
  const kernel_table kernel(proto);
  rng gen(501);
  using amp = approximate_majority_protocol;
  // X + Y -> X + B.
  EXPECT_EQ(kernel.sample(amp::state_x, amp::state_y, gen),
            (std::pair<agent_state, agent_state>{amp::state_x,
                                                 amp::state_blank}));
  // X + B -> X + X.
  EXPECT_EQ(kernel.sample(amp::state_x, amp::state_blank, gen),
            (std::pair<agent_state, agent_state>{amp::state_x, amp::state_x}));
  // Y + X -> Y + B.
  EXPECT_EQ(kernel.sample(amp::state_y, amp::state_x, gen),
            (std::pair<agent_state, agent_state>{amp::state_y,
                                                 amp::state_blank}));
  // Like states unchanged.
  EXPECT_EQ(kernel.sample(amp::state_x, amp::state_x, gen),
            (std::pair<agent_state, agent_state>{amp::state_x, amp::state_x}));
}

TEST(ApproximateMajority, ReachesConsensus) {
  const approximate_majority_protocol proto;
  simulation sim(proto, majority_population(60, 40, 0), rng(502));
  const auto steps = sim.run_until(approximate_majority_protocol::has_consensus,
                                   2'000'000);
  ASSERT_LT(steps, 2'000'000u);
  EXPECT_TRUE(approximate_majority_protocol::has_consensus(sim.census()));
}

TEST(ApproximateMajority, LargeInitialGapElectsMajority) {
  // With a large initial margin the majority opinion wins with high
  // probability; count wins over repeated runs.
  int x_wins = 0;
  constexpr int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const approximate_majority_protocol proto;
    simulation sim(proto, majority_population(80, 20, 0),
                   rng(503 + static_cast<std::uint64_t>(t)));
    sim.run_until(approximate_majority_protocol::has_consensus, 2'000'000);
    if (sim.census().count(approximate_majority_protocol::state_x) ==
        sim.agents().size()) {
      ++x_wins;
    }
  }
  EXPECT_GE(x_wins, trials - 2);
}

TEST(ApproximateMajority, ConsensusIsFast) {
  // O(n log n) interactions: allow a generous constant.
  const std::size_t n = 300;
  running_summary times;
  for (int t = 0; t < 10; ++t) {
    const approximate_majority_protocol proto;
    simulation sim(proto, majority_population(2 * n / 3, n / 3, 0),
                   rng(504 + static_cast<std::uint64_t>(t)));
    const auto steps = sim.run_until(
        approximate_majority_protocol::has_consensus, 50'000'000);
    ASSERT_LT(steps, 50'000'000u);
    times.add(static_cast<double>(steps));
  }
  const double budget = 40.0 * n * std::log(n);
  EXPECT_LT(times.mean(), budget);
}

TEST(ApproximateMajority, StateNames) {
  const approximate_majority_protocol proto;
  EXPECT_EQ(proto.state_name(0), "X");
  EXPECT_EQ(proto.state_name(1), "Y");
  EXPECT_EQ(proto.state_name(2), "B");
}

TEST(LeaderElection, TransitionTable) {
  const leader_election_protocol proto;
  const kernel_table kernel(proto);
  rng gen(505);
  using lep = leader_election_protocol;
  EXPECT_EQ(kernel.sample(lep::state_leader, lep::state_leader, gen),
            (std::pair<agent_state, agent_state>{lep::state_leader,
                                                 lep::state_follower}));
  EXPECT_EQ(kernel.sample(lep::state_leader, lep::state_follower, gen),
            (std::pair<agent_state, agent_state>{lep::state_leader,
                                                 lep::state_follower}));
  EXPECT_EQ(kernel.sample(lep::state_follower, lep::state_follower, gen),
            (std::pair<agent_state, agent_state>{lep::state_follower,
                                                 lep::state_follower}));
}

TEST(LeaderElection, AlwaysElectsExactlyOneLeader) {
  const leader_election_protocol proto;
  const std::vector<agent_state> all_leaders(
      100, leader_election_protocol::state_leader);
  simulation sim(proto, population(all_leaders, 2), rng(506));
  const auto steps = sim.run_until(
      leader_election_protocol::has_unique_leader, 100'000'000);
  ASSERT_LT(steps, 100'000'000u);
  EXPECT_EQ(sim.census().count(leader_election_protocol::state_leader), 1u);
}

TEST(LeaderElection, LeaderCountIsMonotoneNonIncreasing) {
  const leader_election_protocol proto;
  const std::vector<agent_state> all_leaders(
      50, leader_election_protocol::state_leader);
  simulation sim(proto, population(all_leaders, 2), rng(507));
  std::uint64_t previous = 50;
  for (int i = 0; i < 2000; ++i) {
    sim.step();
    const auto leaders =
        sim.census().count(leader_election_protocol::state_leader);
    EXPECT_LE(leaders, previous);
    previous = leaders;
  }
  EXPECT_GE(previous, 1u);
}

TEST(LeaderElection, ExpectedQuadraticTimeScale) {
  // Coupon-collector style bound: expected completion ~ n^2 interactions
  // (sum over pair meet times); check a small n completes within ~8 n^2 on
  // average.
  const std::size_t n = 60;
  const std::vector<agent_state> all_leaders(
      n, leader_election_protocol::state_leader);
  running_summary times;
  for (int t = 0; t < 10; ++t) {
    const leader_election_protocol proto;
    simulation sim(proto, population(all_leaders, 2),
                   rng(508 + static_cast<std::uint64_t>(t)));
    const auto steps = sim.run_until(
        leader_election_protocol::has_unique_leader, 100'000'000);
    ASSERT_LT(steps, 100'000'000u);
    times.add(static_cast<double>(steps));
  }
  EXPECT_LT(times.mean(), 8.0 * n * n);
  EXPECT_GT(times.mean(), 0.1 * n * n);
}

TEST(Rumor, TransitionTable) {
  const rumor_protocol proto;
  const kernel_table kernel(proto);
  rng gen(509);
  using rp = rumor_protocol;
  EXPECT_EQ(kernel.sample(rp::state_informed, rp::state_susceptible, gen),
            (std::pair<agent_state, agent_state>{rp::state_informed,
                                                 rp::state_informed}));
  EXPECT_EQ(kernel.sample(rp::state_susceptible, rp::state_informed, gen),
            (std::pair<agent_state, agent_state>{rp::state_susceptible,
                                                 rp::state_informed}));
}

TEST(Rumor, SpreadsToEveryone) {
  const rumor_protocol proto;
  std::vector<agent_state> states(200, rumor_protocol::state_susceptible);
  states[0] = rumor_protocol::state_informed;
  simulation sim(proto, population(std::move(states), 2), rng(510));
  const auto steps = sim.run_until(rumor_protocol::all_informed, 10'000'000);
  ASSERT_LT(steps, 10'000'000u);
  EXPECT_TRUE(rumor_protocol::all_informed(sim.census()));
}

TEST(Rumor, CompletionIsNLogNScale) {
  const std::size_t n = 500;
  running_summary times;
  for (int t = 0; t < 10; ++t) {
    const rumor_protocol proto;
    std::vector<agent_state> states(n, rumor_protocol::state_susceptible);
    states[0] = rumor_protocol::state_informed;
    simulation sim(proto, population(std::move(states), 2),
                   rng(511 + static_cast<std::uint64_t>(t)));
    const auto steps =
        sim.run_until(rumor_protocol::all_informed, 100'000'000);
    ASSERT_LT(steps, 100'000'000u);
    times.add(static_cast<double>(steps));
  }
  // Push-only epidemic completes in ~n ln n * constant interactions.
  EXPECT_LT(times.mean(), 10.0 * n * std::log(n));
  EXPECT_GT(times.mean(), 0.5 * n * std::log(n));
}

TEST(Rumor, InformedCountNeverDecreases) {
  const rumor_protocol proto;
  std::vector<agent_state> states(50, rumor_protocol::state_susceptible);
  states[0] = rumor_protocol::state_informed;
  simulation sim(proto, population(std::move(states), 2), rng(512));
  std::uint64_t previous = 1;
  for (int i = 0; i < 5000; ++i) {
    sim.step();
    const auto informed = sim.census().count(rumor_protocol::state_informed);
    EXPECT_GE(informed, previous);
    previous = informed;
  }
}

}  // namespace
}  // namespace ppg
