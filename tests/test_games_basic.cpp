// Tests for the game structures and strategy representations.
#include <gtest/gtest.h>

#include "ppg/games/donation.hpp"
#include "ppg/games/strategy.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(GameState, IndexingRoundTrip) {
  for (const action ra : {action::cooperate, action::defect}) {
    for (const action ca : {action::cooperate, action::defect}) {
      const game_state s = make_state(ra, ca);
      EXPECT_EQ(row_action(s), ra);
      EXPECT_EQ(col_action(s), ca);
    }
  }
}

TEST(GameState, PaperOrdering) {
  EXPECT_EQ(make_state(action::cooperate, action::cooperate), game_state::cc);
  EXPECT_EQ(make_state(action::cooperate, action::defect), game_state::cd);
  EXPECT_EQ(make_state(action::defect, action::cooperate), game_state::dc);
  EXPECT_EQ(make_state(action::defect, action::defect), game_state::dd);
}

TEST(GameState, SwappedExchangesRoles) {
  EXPECT_EQ(swapped(game_state::cd), game_state::dc);
  EXPECT_EQ(swapped(game_state::dc), game_state::cd);
  EXPECT_EQ(swapped(game_state::cc), game_state::cc);
  EXPECT_EQ(swapped(game_state::dd), game_state::dd);
}

TEST(DonationGame, RewardVectorMatchesPaper) {
  const donation_game game{3.0, 1.0};
  const auto v = game.reward_vector();
  EXPECT_DOUBLE_EQ(v[0], 2.0);   // CC: b - c
  EXPECT_DOUBLE_EQ(v[1], -1.0);  // CD: -c
  EXPECT_DOUBLE_EQ(v[2], 3.0);   // DC: b
  EXPECT_DOUBLE_EQ(v[3], 0.0);   // DD: 0
}

TEST(DonationGame, ValidityRequiresBGreaterThanC) {
  EXPECT_TRUE((donation_game{2.0, 1.0}).valid());
  EXPECT_TRUE((donation_game{2.0, 0.0}).valid());
  EXPECT_FALSE((donation_game{1.0, 1.0}).valid());
  EXPECT_FALSE((donation_game{1.0, 2.0}).valid());
  EXPECT_FALSE((donation_game{2.0, -0.5}).valid());
}

TEST(DonationGame, InducesPrisonersDilemma) {
  EXPECT_TRUE((donation_game{2.0, 1.0}).payoffs().is_prisoners_dilemma());
  EXPECT_TRUE((donation_game{10.0, 1.0}).payoffs().is_prisoners_dilemma());
  // c = 0 degenerates (P == S).
  EXPECT_FALSE((donation_game{2.0, 0.0}).payoffs().is_prisoners_dilemma());
}

TEST(PdPayoffs, ClassicAxelrodValues) {
  const pd_payoffs axelrod{3.0, 0.0, 5.0, 1.0};
  EXPECT_TRUE(axelrod.is_prisoners_dilemma());
  EXPECT_DOUBLE_EQ(axelrod.payoff(game_state::dc), 5.0);
}

TEST(Strategy, ValidityChecks) {
  EXPECT_TRUE(always_cooperate().valid());
  EXPECT_TRUE(always_defect().valid());
  memory_one_strategy bad = always_cooperate();
  bad.initial_cooperation = 1.5;
  EXPECT_FALSE(bad.valid());
  bad = always_cooperate();
  bad.cooperate_given[2] = -0.1;
  EXPECT_FALSE(bad.valid());
}

TEST(Strategy, GtftResponses) {
  const auto gtft = generous_tit_for_tat(0.25, 0.5);
  EXPECT_DOUBLE_EQ(gtft.initial_cooperation, 0.5);
  // Opponent cooperated (states CC and DC): respond C with probability 1.
  EXPECT_DOUBLE_EQ(gtft.response(game_state::cc), 1.0);
  EXPECT_DOUBLE_EQ(gtft.response(game_state::dc), 1.0);
  // Opponent defected (states CD and DD): respond C with probability g.
  EXPECT_DOUBLE_EQ(gtft.response(game_state::cd), 0.25);
  EXPECT_DOUBLE_EQ(gtft.response(game_state::dd), 0.25);
}

TEST(Strategy, TftIsGtftWithZeroGenerosity) {
  const auto tft = tit_for_tat(1.0);
  const auto gtft0 = generous_tit_for_tat(0.0, 1.0);
  for (std::size_t s = 0; s < num_game_states; ++s) {
    EXPECT_DOUBLE_EQ(tft.response(static_cast<game_state>(s)),
                     gtft0.response(static_cast<game_state>(s)));
  }
}

TEST(Strategy, AcIsGtftWithFullGenerosity) {
  const auto gtft1 = generous_tit_for_tat(1.0, 1.0);
  for (std::size_t s = 0; s < num_game_states; ++s) {
    EXPECT_DOUBLE_EQ(gtft1.response(static_cast<game_state>(s)), 1.0);
  }
}

TEST(Strategy, WslsResponses) {
  const auto wsls = win_stay_lose_shift();
  EXPECT_DOUBLE_EQ(wsls.response(game_state::cc), 1.0);  // won with C: stay
  EXPECT_DOUBLE_EQ(wsls.response(game_state::cd), 0.0);  // lost with C: shift
  EXPECT_DOUBLE_EQ(wsls.response(game_state::dc), 0.0);  // won with D: stay D
  EXPECT_DOUBLE_EQ(wsls.response(game_state::dd), 1.0);  // lost with D: shift
}

TEST(Strategy, InvalidParametersThrow) {
  EXPECT_THROW((void)generous_tit_for_tat(1.5, 0.5), invariant_error);
  EXPECT_THROW((void)generous_tit_for_tat(0.5, -0.1), invariant_error);
  EXPECT_THROW((void)tit_for_tat(2.0), invariant_error);
}

TEST(PaperStrategy, LoweringToMemoryOne) {
  EXPECT_DOUBLE_EQ(
      paper_strategy::ac().to_memory_one(0.5).initial_cooperation, 1.0);
  EXPECT_DOUBLE_EQ(
      paper_strategy::ad().to_memory_one(0.5).initial_cooperation, 0.0);
  const auto g = paper_strategy::gtft(0.3).to_memory_one(0.7);
  EXPECT_DOUBLE_EQ(g.initial_cooperation, 0.7);
  EXPECT_DOUBLE_EQ(g.response(game_state::dd), 0.3);
}

TEST(GenerosityGrid, EquidistantEndpoints) {
  const auto grid = generosity_grid(5, 0.8);
  EXPECT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 0.8);
  EXPECT_DOUBLE_EQ(grid[1], 0.2);
  EXPECT_DOUBLE_EQ(grid[2], 0.4);
}

TEST(GenerosityGrid, MinimumTwoLevels) {
  const auto grid = generosity_grid(2, 1.0);
  EXPECT_DOUBLE_EQ(grid[0], 0.0);
  EXPECT_DOUBLE_EQ(grid[1], 1.0);
  EXPECT_THROW((void)generosity_grid(1, 0.5), invariant_error);
}

}  // namespace
}  // namespace ppg
