// The generic game-dynamics layer: game_matrix builders, update-rule
// contracts, the game_protocol compilation (game + rule -> kernel), engine
// agreement (chi-square at fixed parallel time of the census and multibatch
// engines against the exact census chain for every update rule on at least
// two games), and bitwise equivalence of igt_protocol — now a game_protocol
// specialization — with the paper's hand-written Definition 2.1 transition
// function, frozen here as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine_agreement.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/stats/chi_square.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(GameMatrix, DonationMatrixIsThePaperPrisonersDilemma) {
  const donation_game game{3.0, 1.0};
  const auto m = donation_matrix(game);
  ASSERT_EQ(m.num_strategies(), 2u);
  EXPECT_EQ(m.strategy_name(0), "C");
  EXPECT_EQ(m.strategy_name(1), "D");
  EXPECT_DOUBLE_EQ(m.payoff(0, 0), 2.0);   // b - c
  EXPECT_DOUBLE_EQ(m.payoff(0, 1), -1.0);  // -c
  EXPECT_DOUBLE_EQ(m.payoff(1, 0), 3.0);   // b
  EXPECT_DOUBLE_EQ(m.payoff(1, 1), 0.0);
  EXPECT_TRUE(game.payoffs().is_prisoners_dilemma());
  // Defection dominates against any mix.
  for (const double x : {0.0, 0.3, 1.0}) {
    EXPECT_GT(m.expected_payoff(1, {x, 1.0 - x}),
              m.expected_payoff(0, {x, 1.0 - x}));
  }
}

TEST(GameMatrix, HawkDoveMixedEquilibriumAtValueOverCost) {
  const auto m = hawk_dove_matrix(1.0, 2.0);
  // At hawk fraction v/c both strategies earn the same.
  const std::vector<double> ess = {0.5, 0.5};
  EXPECT_NEAR(m.expected_payoff(0, ess), m.expected_payoff(1, ess), 1e-12);
  EXPECT_EQ(m.best_responses(ess).size(), 2u);
  // Above it doves do better, below it hawks do.
  EXPECT_GT(m.expected_payoff(1, {0.7, 0.3}),
            m.expected_payoff(0, {0.7, 0.3}));
  EXPECT_GT(m.expected_payoff(0, {0.3, 0.7}),
            m.expected_payoff(1, {0.3, 0.7}));
}

TEST(GameMatrix, StagHuntHasTwoPureEquilibriaAndAThreshold) {
  const auto m = stag_hunt_matrix(4.0, 3.0);
  EXPECT_EQ(m.best_responses({1.0, 0.0}),
            (std::vector<std::size_t>{0}));  // all-stag: stag best
  EXPECT_EQ(m.best_responses({0.0, 1.0}),
            (std::vector<std::size_t>{1}));  // all-hare: hare best
  // Indifference at stag fraction hare/stag = 3/4.
  const std::vector<double> threshold = {0.75, 0.25};
  EXPECT_NEAR(m.expected_payoff(0, threshold),
              m.expected_payoff(1, threshold), 1e-12);
}

TEST(GameMatrix, RockPaperScissorsIsZeroSumWithUniformEquilibrium) {
  const auto m = rock_paper_scissors_matrix();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m.payoff(i, j), -m.payoff(j, i));
    }
  }
  const std::vector<double> uniform(3, 1.0 / 3.0);
  EXPECT_NEAR(m.average_payoff(uniform), 0.0, 1e-12);
  EXPECT_EQ(m.best_responses(uniform).size(), 3u);
}

TEST(GameMatrix, IgtMatrixMatchesTheClosedFormPayoffs) {
  const std::size_t k = 4;
  const rd_setting setting{2.0, 1.0, 0.9, 0.8};
  const double g_max = 0.6;
  const auto m = igt_game_matrix(k, setting, g_max);
  ASSERT_EQ(m.num_strategies(), 2 + k);
  EXPECT_EQ(m.strategy_name(0), "AC");
  EXPECT_EQ(m.strategy_name(1), "AD");
  EXPECT_EQ(m.strategy_name(2), "g1");
  EXPECT_EQ(m.strategy_name(2 + k - 1), "g" + std::to_string(k));
  const auto grid = generosity_grid(k, g_max);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(m.payoff(2 + i, 0), f_gtft_vs_ac(setting), 1e-9);
    EXPECT_NEAR(m.payoff(2 + i, 1), f_gtft_vs_ad(setting, grid[i]), 1e-9);
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_NEAR(m.payoff(2 + i, 2 + j),
                  f_gtft_vs_gtft(setting, grid[i], grid[j]), 1e-9);
    }
  }
}

TEST(GameMatrix, ConstructionRejectsMalformedInput) {
  EXPECT_THROW(game_matrix({"A"}, {1.0}), invariant_error);
  EXPECT_THROW(game_matrix({"A", "B"}, {1.0, 2.0, 3.0}), invariant_error);
  EXPECT_THROW(game_matrix({"A", "A"}, {0.0, 0.0, 0.0, 0.0}),
               invariant_error);
  EXPECT_THROW(game_matrix({"A", ""}, {0.0, 0.0, 0.0, 0.0}),
               invariant_error);
  EXPECT_THROW(hawk_dove_matrix(2.0, 1.0), invariant_error);
  EXPECT_THROW(stag_hunt_matrix(3.0, 4.0), invariant_error);
}

std::vector<std::shared_ptr<const update_rule>> all_rules() {
  return {std::make_shared<imitate_if_better_rule>(),
          std::make_shared<proportional_imitation_rule>(0.8),
          std::make_shared<logit_response_rule>(0.5),
          std::make_shared<igt_ladder_rule>(3)};
}

TEST(UpdateRules, RevisionsAreProbabilityDistributions) {
  const auto igt = igt_game_matrix(3);
  const auto games = {donation_matrix(), igt};
  for (const auto& rule : all_rules()) {
    for (const auto& game : games) {
      if (rule->name() == "igt-ladder" && game.num_strategies() != 5) {
        continue;  // the ladder is defined over the generosity-indexed set
      }
      for (std::size_t s = 0; s < game.num_strategies(); ++s) {
        for (std::size_t p = 0; p < game.num_strategies(); ++p) {
          const auto dist = rule->revise(game, s, p);
          ASSERT_EQ(dist.size(), game.num_strategies());
          double total = 0.0;
          for (const double x : dist) {
            EXPECT_GE(x, 0.0);
            total += x;
          }
          EXPECT_NEAR(total, 1.0, 1e-12) << rule->name();
        }
      }
    }
  }
}

TEST(UpdateRules, ImitateIfBetterFollowsTheEncounterPayoffs) {
  const auto m = donation_matrix();  // C vs D: the defector earns more
  const imitate_if_better_rule rule;
  EXPECT_DOUBLE_EQ(rule.revise(m, 0, 1)[1], 1.0);  // C adopts D
  EXPECT_DOUBLE_EQ(rule.revise(m, 1, 0)[1], 1.0);  // D keeps D
  EXPECT_DOUBLE_EQ(rule.revise(m, 0, 0)[0], 1.0);  // ties never switch
}

TEST(UpdateRules, ProportionalImitationScalesWithThePayoffGap) {
  const auto m = donation_matrix(donation_game{2.0, 1.0});
  // Span = b - (-c) = 3; C vs D gap = b - (-c) = 3 -> switch w.p. rate.
  const proportional_imitation_rule rule(0.5);
  EXPECT_NEAR(rule.revise(m, 0, 1)[1], 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(rule.revise(m, 1, 0)[1], 1.0);  // winners never switch
}

TEST(UpdateRules, LogitApproachesBestResponseAsTemperatureFalls) {
  const auto m = stag_hunt_matrix(4.0, 3.0);
  const logit_response_rule cold(0.05);
  const logit_response_rule hot(100.0);
  // Respond to a stag partner: stag is the best response.
  EXPECT_GT(cold.revise(m, 1, 0)[0], 0.999);
  // Near-infinite temperature: uniform.
  EXPECT_NEAR(hot.revise(m, 1, 0)[0], 0.5, 0.01);
}

TEST(UpdateRules, LadderMatchesTheIgtEncoding) {
  const std::size_t k = 4;
  const auto m = igt_game_matrix(k);
  const igt_ladder_rule rule(k);
  for (std::size_t level = 0; level < k; ++level) {
    const auto self = igt_encoding::gtft(level);
    const auto up = rule.revise(m, self, igt_encoding::ac);
    const auto down = rule.revise(m, self, igt_encoding::ad);
    EXPECT_DOUBLE_EQ(
        up[igt_encoding::gtft(std::min(level + 1, k - 1))], 1.0);
    EXPECT_DOUBLE_EQ(
        down[igt_encoding::gtft(level > 0 ? level - 1 : 0)], 1.0);
  }
  EXPECT_DOUBLE_EQ(rule.revise(m, igt_encoding::ac, igt_encoding::ad)
                       [igt_encoding::ac],
                   1.0);
  EXPECT_THROW((void)rule.revise(donation_matrix(), 0, 1), invariant_error);
}

TEST(GameProtocol, CompiledKernelSatisfiesTheKernelContract) {
  for (const auto discipline :
       {revision_discipline::one_way, revision_discipline::two_way}) {
    for (const auto& rule : all_rules()) {
      const auto game = rule->name() == "igt-ladder"
                            ? igt_game_matrix(3)
                            : hawk_dove_matrix(1.0, 2.0);
      const game_protocol proto(game, rule, discipline);
      EXPECT_EQ(proto.num_states(), game.num_strategies());
      EXPECT_NO_THROW(kernel_table{proto});  // validates every pair
    }
  }
}

TEST(GameProtocol, OneWayNeverTouchesTheResponder) {
  const game_protocol proto(rock_paper_scissors_matrix(),
                            std::make_shared<logit_response_rule>(0.7));
  for (agent_state i = 0; i < proto.num_states(); ++i) {
    for (agent_state r = 0; r < proto.num_states(); ++r) {
      for (const auto& o : proto.outcome_distribution(i, r)) {
        EXPECT_EQ(o.responder, r);
      }
    }
  }
}

TEST(GameProtocol, TwoWayKernelIsTheProductOfIndependentRevisions) {
  const auto game = hawk_dove_matrix(1.0, 2.0);
  const auto rule = std::make_shared<logit_response_rule>(0.4);
  const game_protocol proto(game, rule, revision_discipline::two_way);
  for (agent_state i = 0; i < 2; ++i) {
    for (agent_state r = 0; r < 2; ++r) {
      const auto mine = rule->revise(game, i, r);
      const auto theirs = rule->revise(game, r, i);
      for (const auto& o : proto.outcome_distribution(i, r)) {
        EXPECT_NEAR(o.probability, mine[o.initiator] * theirs[o.responder],
                    1e-12);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The shared engine-agreement suite: for every update rule, on two games
// each, the census and multibatch engines must follow the exact census
// chain's law at a fixed parallel time (one-sample chi-square on a census
// statistic). Where the reachable chain is too large to evolve — ladder/
// igt-k4's 90 GTFT agents over 4 levels reach C(93, 3) ~ 1.3e5 censuses —
// the census engine is the multibatch engine's reference (two-sample).
// ---------------------------------------------------------------------------

struct engine_case {
  std::string label;
  std::shared_ptr<const update_rule> rule;
  game_matrix game;
  std::vector<std::uint64_t> initial_counts;
  /// Whether the reachable census chain is small enough to evolve.
  bool exact = true;
};

std::vector<engine_case> engine_cases() {
  std::vector<engine_case> cases;
  const auto donation = donation_matrix(donation_game{2.0, 1.0});
  const auto hawk_dove = hawk_dove_matrix(1.0, 2.0);
  const auto rps = rock_paper_scissors_matrix();
  const std::vector<std::uint64_t> two_even = {75, 75};
  const std::vector<std::uint64_t> three_tilted = {70, 50, 30};
  cases.push_back({"imitate/donation",
                   std::make_shared<imitate_if_better_rule>(), donation,
                   two_even});
  cases.push_back({"imitate/hawk-dove",
                   std::make_shared<imitate_if_better_rule>(), hawk_dove,
                   two_even});
  cases.push_back({"proportional/donation",
                   std::make_shared<proportional_imitation_rule>(0.8),
                   donation, two_even});
  cases.push_back({"proportional/rps",
                   std::make_shared<proportional_imitation_rule>(0.8), rps,
                   three_tilted});
  cases.push_back({"logit/hawk-dove",
                   std::make_shared<logit_response_rule>(0.5), hawk_dove,
                   two_even});
  cases.push_back({"logit/stag-hunt",
                   std::make_shared<logit_response_rule>(0.5),
                   stag_hunt_matrix(4.0, 3.0), two_even});
  // Two distinct ladder games: different rung counts (and so different
  // generosity grids and payoff matrices).
  cases.push_back({"ladder/igt-k3", std::make_shared<igt_ladder_rule>(3),
                   igt_game_matrix(3), {20, 40, 90, 0, 0}});
  cases.push_back({"ladder/igt-k4", std::make_shared<igt_ladder_rule>(4),
                   igt_game_matrix(4), {20, 40, 90, 0, 0, 0}, false});
  return cases;
}

TEST(Engines, AllUpdateRulesAgreeAcrossEnginesAtFixedParallelTime) {
  std::uint64_t master = 400;
  for (const auto& c : engine_cases()) {
    const game_protocol proto(c.game, c.rule);
    const sim_spec spec(proto, c.initial_counts);
    const std::uint64_t steps = 12 * spec.population_size();
    // One scalar summary that weights every state differently, so a
    // distribution shift in any coordinate moves it.
    const auto statistic = [](const census_view& census) {
      double mass = 0.0;
      for (std::size_t s = 0; s < census.num_state_kinds(); ++s) {
        mass += static_cast<double>(s + 1) *
                static_cast<double>(census.count(
                    static_cast<agent_state>(s)));
      }
      return mass;
    };
    constexpr std::size_t replicas = 200;
    // Four seeds per case: master belonged to the agent engine and
    // master + 2 to the batched engine, both retired, and stay unused so
    // the others keep theirs.
    const auto census = testing::replica_statistics(
        spec, engine_kind::census, replicas, steps, master + 1, statistic);
    const auto multibatch = testing::replica_statistics(
        spec, engine_kind::multibatch, replicas, steps, master + 3, statistic);
    master += 4;
    if (c.exact) {
      const auto law =
          testing::build_census_chain(kernel_table(proto), c.initial_counts,
                                      pair_sampling::distinct)
              .statistic_law_after(steps, statistic);
      EXPECT_GT(testing::exact_p(census, law, 8), 1e-4) << c.label;
      EXPECT_GT(testing::exact_p(multibatch, law, 8), 1e-4) << c.label;
    } else {
      EXPECT_GT(testing::two_sample_p(census, multibatch, 8), 1e-4) << c.label;
    }
  }
}

// Proportional imitation with mutation: with probability `mutation` the
// reviser draws a strategy uniformly, and otherwise it revises by
// proportional imitation. Both sides of a two-way pair can then move, so
// over q = 2 every pair has four outcomes; the law depends on the
// reviser's own strategy, so the kernel is not partner-keyed.
class mutating_imitation_rule final : public update_rule {
 public:
  mutating_imitation_rule(double rate, double mutation)
      : imitation_(rate), mutation_(mutation) {}
  [[nodiscard]] std::vector<double> revise(
      const game_matrix& g, std::size_t self,
      std::size_t partner) const override {
    auto out = imitation_.revise(g, self, partner);
    const double uniform = mutation_ / static_cast<double>(out.size());
    for (double& p : out) p = (1.0 - mutation_) * p + uniform;
    return out;
  }
  [[nodiscard]] std::string name() const override {
    return "mutating-imitation";
  }

 private:
  proportional_imitation_rule imitation_;
  double mutation_;
};

// At the n <= 240 of the suite above, collision-free runs of ~8-10 pairs
// rarely reach the aggregate threshold: the logit cases run sequential
// rounds, and the rest, whose kernels have identity pairs, skip batches.
// At n = 20,000 rounds average ~90 pairs and the aggregate path carries
// nearly every interaction; its law must still match the census engine's.
// Logit kernels are partner-keyed: their rounds draw the outcome sums from
// the partner laws, with no matching table. The other kernels draw MVH
// pair tables and split each cell of a randomized pair by one multinomial:
// cells of ~10-22 pairs at n = 20,000, ~200 in the hawk-dove case at
// n = 10^6. Proportional imitation lets at most one side of a pair move
// (the payoff gap is antisymmetric), so its cells have two outcomes, one-
// or two-way; the mutating two-way case's have four. The cases marked
// with a chunk advance in run(997) calls, so budget splits land at many
// offsets inside classed or partner-keyed rounds and collisions meet pools
// left by truncated aggregates; the others run as one run(steps) call.
TEST(Engines, MultibatchAggregatePathAgreesWithTheCensusEngine) {
  using row_shape = kernel_table::row_shape;
  /// Whether the case's cells split by multinomials, draw nothing, or are
  /// never drawn because its rounds are partner-keyed.
  enum class split { multinomial, deterministic, partner_keyed };
  struct aggregate_case {
    std::string label;
    game_protocol proto;
    std::vector<std::uint64_t> initial_counts;
    std::uint64_t steps;
    split cells;
    bool classed;  ///< whether the kernel has classed rows
    std::uint64_t chunk = 0;  ///< run() chunk size; 0 runs all steps at once
    /// The largest pair support of a split::multinomial case.
    std::size_t support = 0;
    /// Whether the run() chunks cycle through 1, 2, ..., chunk instead.
    bool cycle = false;
    /// Whether the trajectory also runs skip batches: the non-identity
    /// mass starts below the cost model's limit and crosses it.
    bool mixed = false;
  };
  std::vector<std::uint64_t> igt_counts(10, 0);
  igt_counts[igt_encoding::ac] = 10'000;
  igt_counts[igt_encoding::ad] = 20'000;
  igt_counts[igt_encoding::gtft(0)] = 70'000;
  // Two-way logit over three strategies at n = 10^5 (threshold 4 * 3 * 2
  // = 24, rounds of ~199 pairs). From the tilted start the statistic
  // drifts by ~2.3e4 against a spread of ~210.
  const game_protocol logit_q3(
      game_matrix({"a", "b", "c"}, {3.0, 0.0, 1.0,  //
                                    1.0, 2.0, 0.0,  //
                                    0.0, 1.0, 2.0}),
      std::make_shared<logit_response_rule>(0.7),
      revision_discipline::two_way);
  const std::vector<std::uint64_t> logit_q3_counts = {10'000, 20'000, 70'000};
  // A coordination game at a low temperature: a reviser adopts its
  // partner's strategy with probability 1 - 9e-5. One-way, that is nearly
  // the voter model, whose census diffuses (spread ~220 at parallel time
  // 0.5); two-way, the pair nearly swaps, and the census barely moves. A
  // round that keyed either side's law on that side's own census instead
  // of its partners' would freeze the first and diffuse the second, with
  // the same mean in both.
  const game_matrix coordination({"a", "b", "c"}, {1.0, 0.0, 0.0,  //
                                                   0.0, 1.0, 0.0,  //
                                                   0.0, 0.0, 1.0});
  const auto sharp_logit = std::make_shared<logit_response_rule>(0.1);
  const std::vector<std::uint64_t> thirds = {33'000, 33'000, 34'000};
  const std::vector<aggregate_case> cases = {
      // v/c = 1/3 puts the logit fixed point off the symmetric point, so
      // a biased outcome split moves the census the test observes.
      {"logit/hawk-dove two-way",
       game_protocol(hawk_dove_matrix(1.0, 3.0),
                     std::make_shared<logit_response_rule>(0.5),
                     revision_discipline::two_way),
       {16'000, 4'000}, 40'000, split::partner_keyed, false},
      {"proportional/rps",
       game_protocol(rock_paper_scissors_matrix(),
                     std::make_shared<proportional_imitation_rule>(0.8)),
       {9'000, 7'000, 4'000}, 40'000, split::multinomial, false, 0, 2},
      // A tenth of parallel time from the even start: the census drifts
      // towards the fixed point by ~7e3 agents against a spread of ~200,
      // so a biased outcome sum would shift it by many spreads.
      {"logit/hawk-dove one-way",
       game_protocol(hawk_dove_matrix(1.0, 3.0),
                     std::make_shared<logit_response_rule>(0.5)),
       {500'000, 500'000}, 100'000, split::partner_keyed, false},
      // Doves meeting hawks switch with probability 0.4, and nothing else
      // moves: in a tenth of parallel time from 10% hawks ~3.7e3 doves
      // switch, against a spread of ~60. Cells of ~200 pairs over 2
      // outcomes.
      {"proportional/hawk-dove one-way, large cells",
       game_protocol(hawk_dove_matrix(1.0, 3.0),
                     std::make_shared<proportional_imitation_rule>(0.8)),
       {100'000, 900'000}, 100'000, split::multinomial, false, 0, 2},
      // Two-way, every row is general and the loser of a pair may switch
      // as initiator or as responder, so the cells' outcomes move
      // responders too (threshold 36, rounds of ~199 pairs at n = 10^5).
      {"proportional/rps two-way",
       game_protocol(rock_paper_scissors_matrix(),
                     std::make_shared<proportional_imitation_rule>(0.8),
                     revision_discipline::two_way),
       {50'000, 35'000, 15'000}, 100'000, split::multinomial, false, 0, 2},
      // Both sides mutate with probability 0.2 and imitate otherwise:
      // every pair has four outcomes, so each cell of ~50 pairs draws a
      // three-binomial multinomial (threshold 16, rounds of ~199 pairs).
      {"mutating imitation/hawk-dove two-way, four outcomes",
       game_protocol(hawk_dove_matrix(1.0, 3.0),
                     std::make_shared<mutating_imitation_rule>(0.8, 0.2),
                     revision_discipline::two_way),
       {10'000, 90'000}, 100'000, split::multinomial, false, 0, 4},
      // D = 6 support points past the first: its rounds defer their laws,
      // and in one run() call a boundary reveals every agent each ~3.5
      // rounds (2 E[J] P / n reaching sqrt(6 pi) ~ 4.3), ~70 times.
      {"logit q=3 two-way", logit_q3, logit_q3_counts, 50'000,
       split::partner_keyed, false},
      {"coordination logit one-way", game_protocol(coordination, sharp_logit),
       thirds, 50'000, split::partner_keyed, false},
      {"coordination logit two-way",
       game_protocol(coordination, sharp_logit, revision_discipline::two_way),
       thirds, 50'000, split::partner_keyed, false},
      {"logit q=3 two-way, run(997) chunks", logit_q3, logit_q3_counts,
       50'000, split::partner_keyed, false, 997},
      // The paper's k-IGT from the all-stingy start: GTFT rows are
      // classed ({AD} | the rest), AC and AD rows ignore their responder.
      // In half a unit of parallel time GTFT levels climb by ~2.7e4 in
      // the statistic against a spread of ~120, so a wrong class or a lost
      // responder moves it by many spreads.
      {"igt k=8 one-way, classed rows",
       game_protocol(igt_game_matrix(8), std::make_shared<igt_ladder_rule>(8)),
       igt_counts, 50'000, split::deterministic, true},
      // Identical payoff columns for b and c: C = 2 < q = 3, so every row
      // is classed, but the kernel is partner-keyed and its rounds take
      // that path. The statistic drifts by ~9.6e3 against a spread of ~75.
      {"logit one-way, duplicated column, classed rows",
       game_protocol(game_matrix({"a", "b", "c"}, {1.0, 0.0, 0.0,  //
                                                   2.0, 3.0, 3.0,  //
                                                   0.0, 1.0, 1.0}),
                     std::make_shared<logit_response_rule>(1.0)),
       {14'000, 3'000, 3'000}, 40'000, split::partner_keyed, true},
      // Strategy a beats b and c, which tie with each other: b and c
      // initiators switch to a with probability 0.8 against a, and stay
      // otherwise. Responders b and c share a class, so C = 2 < q = 3,
      // the b and c rows are classed with random outcomes, split by
      // multinomials of ~20 pairs, and the a row ignores its responder.
      // The statistic drifts by ~7.6e3 against a spread of ~140. Only b
      // and c initiators meeting a can move, so the non-identity mass is
      // x_a (1 - x_a): skip batches run until a passes ~26% of the census
      // and rounds after it, so this case law-tests a trajectory that
      // switches mechanism; ~30% of its interactions are in rounds.
      {"proportional one-way, tied columns, classed rows",
       game_protocol(game_matrix({"a", "b", "c"}, {2.0, 2.0, 2.0,  //
                                                   0.0, 1.0, 1.0,  //
                                                   0.0, 1.0, 1.0}),
                     std::make_shared<proportional_imitation_rule>(0.8)),
       {2'000, 9'000, 9'000}, 40'000, split::multinomial, true, 0, 2, false,
       true},
      // The k-IGT case again, advanced in run(997) chunks.
      {"igt k=8 one-way, classed rows, run(997) chunks",
       game_protocol(igt_game_matrix(8), std::make_shared<igt_ladder_rule>(8)),
       igt_counts, 50'000, split::deterministic, true, 997},
      // And in chunks of 1, 2, ..., 300 interactions, so budget cuts land
      // at every offset of its ~198-pair rounds: parts below the threshold
      // of 64 take the sequential path, the rest the aggregate path, whose
      // responders are drawn by class and resolved by state at each cut.
      {"igt k=8 one-way, classed rows, run() chunks cycling 1..300",
       game_protocol(igt_game_matrix(8), std::make_shared<igt_ladder_rule>(8)),
       igt_counts, 50'000, split::deterministic, true, 300, 0, true},
      // The q = 3 two-way rounds leave their agents unrevealed by law
      // until run() returns. In chunks of 1, 2, ..., 300 the budget cuts
      // most rounds, so the reveals at each cut, the sequential tails and
      // the collisions all meet unrevealed agents, touched ones from the
      // round in progress and untouched ones from the round before it.
      {"logit q=3 two-way, run() chunks cycling 1..300", logit_q3,
       logit_q3_counts, 50'000, split::partner_keyed, false, 300, 0, true},
  };
  const auto statistic = [](const census_view& census) {
    double mass = 0.0;
    for (std::size_t s = 0; s < census.num_state_kinds(); ++s) {
      mass += static_cast<double>(s + 1) *
              static_cast<double>(census.count(static_cast<agent_state>(s)));
    }
    return mass;
  };
  constexpr std::size_t replicas = 200;
  std::uint64_t master = 700;
  for (const auto& c : cases) {
    const kernel_table kernel(c.proto);
    const std::size_t q = kernel.num_states();
    const std::size_t classed = kernel.rows(row_shape::classed).size();
    EXPECT_EQ(classed > 0, c.classed) << c.label;
    EXPECT_EQ(kernel.partner_keyed(), c.cells == split::partner_keyed)
        << c.label;
    const sim_spec spec(c.proto, c.initial_counts);
    const auto census = testing::replica_statistics(
        spec, engine_kind::census, replicas, c.steps, master++, statistic);
    std::vector<double> multibatch;
    multibatch.reserve(replicas);
    std::uint64_t interactions = 0;
    std::uint64_t rounds = 0;
    std::uint64_t skip_batches = 0;
    std::uint64_t threshold = 0;
    for (std::size_t r = 0; r < replicas; ++r) {
      rng gen = make_stream_rng(master, r);
      const auto engine = spec.make_engine(engine_kind::multibatch, gen);
      std::uint64_t done = 0;
      for (std::uint64_t i = 0; done < c.steps; ++i) {
        const std::uint64_t chunk = c.chunk == 0 ? c.steps
                                    : c.cycle    ? i % c.chunk + 1
                                                 : c.chunk;
        const std::uint64_t step = std::min(chunk, c.steps - done);
        engine->run(step);
        done += step;
      }
      multibatch.push_back(statistic(engine->census()));
      const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
      interactions += mb.interactions();
      rounds += mb.rounds();
      skip_batches += mb.skip_batches();
      threshold = mb.aggregate_threshold();
    }
    ++master;
    EXPECT_GT(rounds, 0u) << c.label;
    if (c.mixed) {
      EXPECT_GT(skip_batches, 0u) << c.label;
    } else {
      // Every interaction is in a round, so this is the mean round length.
      EXPECT_EQ(skip_batches, 0u) << c.label;
      const double per_round =
          static_cast<double>(interactions) / static_cast<double>(rounds);
      EXPECT_GT(per_round, 2.0 * static_cast<double>(threshold))
          << c.label << ": rounds too short to exercise the aggregate path";
    }
    if (c.cells == split::multinomial) {
      std::size_t support = 1;
      for (agent_state u = 0; u < q; ++u) {
        for (agent_state v = 0; v < q; ++v) {
          support = std::max(support, kernel.num_outcomes(u, v));
        }
      }
      EXPECT_EQ(support, c.support) << c.label;
    }
    EXPECT_GT(testing::two_sample_p(census, multibatch, 8), 1e-4) << c.label;
  }
}

// ---------------------------------------------------------------------------
// Bitwise equivalence of the compiled igt_protocol with the legacy
// hand-written Definition 2.1 transition function (the pre-refactor
// implementation's kernel, frozen here as the reference).
// ---------------------------------------------------------------------------

class legacy_igt_protocol final : public protocol {
 public:
  explicit legacy_igt_protocol(std::size_t k, revision_discipline discipline)
      : k_(k), discipline_(discipline) {}

  [[nodiscard]] std::size_t num_states() const override { return 2 + k_; }

  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const override {
    const agent_state next_initiator = updated_level(initiator, responder);
    const agent_state next_responder =
        discipline_ == revision_discipline::two_way
            ? updated_level(responder, initiator)
            : responder;
    return {{next_initiator, next_responder, 1.0}};
  }

 private:
  [[nodiscard]] agent_state updated_level(agent_state self,
                                          agent_state partner) const {
    if (!igt_encoding::is_gtft(self)) {
      return self;
    }
    const std::size_t level = igt_encoding::level(self);
    if (partner == igt_encoding::ad) {
      return igt_encoding::gtft(level > 0 ? level - 1 : 0);
    }
    return igt_encoding::gtft(level + 1 < k_ ? level + 1 : k_ - 1);
  }

  std::size_t k_;
  revision_discipline discipline_;
};

TEST(IgtCompilation, BitwiseIdenticalToTheLegacyImplementation) {
  const std::size_t k = 5;
  for (const auto discipline :
       {revision_discipline::one_way, revision_discipline::two_way}) {
    const igt_protocol compiled(k, discipline);
    const legacy_igt_protocol legacy(k, discipline);
    // The kernels are pointwise identical...
    for (agent_state i = 0; i < compiled.num_states(); ++i) {
      for (agent_state r = 0; r < compiled.num_states(); ++r) {
        const auto a = compiled.outcome_distribution(i, r);
        const auto b = legacy.outcome_distribution(i, r);
        ASSERT_EQ(a.size(), 1u);
        ASSERT_EQ(b.size(), 1u);
        EXPECT_EQ(a[0].initiator, b[0].initiator);
        EXPECT_EQ(a[0].responder, b[0].responder);
      }
    }
    // ...and shared-seed trajectories are bitwise equal on the census
    // engine (compared censuswise at every checkpoint).
    const auto pop = abg_population::from_fractions(90, 0.2, 0.3, 0.5);
    const sim_spec spec_compiled(compiled, make_igt_census(pop, k, 1));
    const sim_spec spec_legacy(legacy, make_igt_census(pop, k, 1));
    rng gen_a(2024);
    rng gen_b(2024);
    const auto lhs = spec_compiled.make_engine(engine_kind::census, gen_a);
    const auto rhs = spec_legacy.make_engine(engine_kind::census, gen_b);
    for (int checkpoint = 0; checkpoint < 20; ++checkpoint) {
      lhs->run(1000);
      rhs->run(1000);
      ASSERT_EQ(lhs->census().counts(), rhs->census().counts())
          << "checkpoint " << checkpoint;
    }
  }
}

TEST(IgtCompilation, ExposesTheCompiledGameAndRule) {
  const igt_protocol proto(4);
  EXPECT_EQ(proto.game().num_strategies(), 6u);
  EXPECT_EQ(proto.rule().name(), "igt-ladder");
  EXPECT_EQ(proto.discipline(), revision_discipline::one_way);
  EXPECT_EQ(proto.state_name(0), "AC");
  EXPECT_EQ(proto.state_name(1), "AD");
  EXPECT_EQ(proto.state_name(5), "g4");
}

}  // namespace
}  // namespace ppg
