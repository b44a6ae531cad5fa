// Single-round game structure: actions, the four joint game states
// A = {CC, CD, DC, DD} (ordered (row action, column action)), general
// prisoner's dilemma payoffs, and the donation-game subclass the paper
// studies (reward vector v = [b-c, -c, b, 0], b > c >= 0; Section 1.1.2).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ppg {

enum class action : std::uint8_t { cooperate = 0, defect = 1 };

/// Joint round states, indexed to match the paper's ordering of A.
enum class game_state : std::uint8_t { cc = 0, cd = 1, dc = 2, dd = 3 };

inline constexpr std::size_t num_game_states = 4;

/// Combines the row and column actions into a joint state index.
[[nodiscard]] constexpr game_state make_state(action row, action col) {
  return static_cast<game_state>(static_cast<std::size_t>(row) * 2 +
                                 static_cast<std::size_t>(col));
}

/// Row player's action in a joint state.
[[nodiscard]] constexpr action row_action(game_state s) {
  return static_cast<action>(static_cast<std::size_t>(s) / 2);
}

/// Column player's action in a joint state.
[[nodiscard]] constexpr action col_action(game_state s) {
  return static_cast<action>(static_cast<std::size_t>(s) % 2);
}

/// The same joint state seen from the column player's perspective
/// (actions swapped): CD <-> DC.
[[nodiscard]] constexpr game_state swapped(game_state s) {
  return make_state(col_action(s), row_action(s));
}

/// General symmetric 2x2 payoffs in the conventional (R, S, T, P) naming:
/// R = reward for mutual cooperation, S = sucker's payoff, T = temptation,
/// P = punishment. The row player's payoff in state (CC, CD, DC, DD) is
/// (R, S, T, P).
struct pd_payoffs {
  double reward = 0.0;
  double sucker = 0.0;
  double temptation = 0.0;
  double punishment = 0.0;

  /// Row player's single-round payoff vector over A.
  [[nodiscard]] std::array<double, num_game_states> reward_vector() const {
    return {reward, sucker, temptation, punishment};
  }

  /// Row player's payoff in a joint state.
  [[nodiscard]] double payoff(game_state s) const {
    return reward_vector()[static_cast<std::size_t>(s)];
  }

  /// True if the payoffs form a prisoner's dilemma:
  /// T > R > P > S (and 2R > T + S so mutual cooperation beats alternating).
  /// Test oracle: tests/test_games_basic.cpp checks the donation games.
  [[nodiscard]] bool is_prisoners_dilemma() const;
};

/// Donation game: cooperating pays cost c to give the opponent benefit b.
struct donation_game {
  double b = 2.0;  ///< benefit to the recipient
  double c = 1.0;  ///< cost to the donor

  /// The paper requires b > c >= 0.
  [[nodiscard]] bool valid() const { return b > c && c >= 0.0; }

  /// The induced prisoner's dilemma payoffs (R, S, T, P) =
  /// (b-c, -c, b, 0).
  [[nodiscard]] pd_payoffs payoffs() const { return {b - c, -c, b, 0.0}; }

  /// Row player's payoff vector v over A, as in the paper.
  [[nodiscard]] std::array<double, num_game_states> reward_vector() const {
    return payoffs().reward_vector();
  }
};

}  // namespace ppg
