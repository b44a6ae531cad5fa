// Exact expected payoffs in repeated donation games (Appendix B.1).
//
// A pair of memory-one strategies induces a Markov chain over the joint
// round states A = {CC, CD, DC, DD}; with continuation probability delta the
// expected total payoff of the row player is
//     f(S1, S2) = < v, q1 (I - delta M)^{-1} >,
// where q1 is the initial state distribution, M the conditional round
// transition matrix, and v the single-round reward vector (equation (33)).
#pragma once

#include <utility>
#include <vector>

#include "ppg/games/donation.hpp"
#include "ppg/games/strategy.hpp"
#include "ppg/linalg/matrix.hpp"

namespace ppg {

/// The round transition matrix M over A for (row, col): from joint state s,
/// the row player cooperates w.p. row.response(s) and the column player
/// w.p. col.response(swapped(s)); next-state probabilities are the product.
[[nodiscard]] matrix round_transition_matrix(const memory_one_strategy& row,
                                             const memory_one_strategy& col);

/// Initial distribution q1 over A from the two initial cooperation
/// probabilities.
[[nodiscard]] std::vector<double> initial_state_distribution(
    const memory_one_strategy& row, const memory_one_strategy& col);

/// Game-level description of a repeated donation game.
struct repeated_donation_game {
  donation_game game;
  double delta = 0.9;  ///< continuation (restart) probability

  [[nodiscard]] bool valid() const {
    return game.valid() && delta >= 0.0 && delta < 1.0;
  }

  /// Expected number of rounds: 1 / (1 - delta).
  [[nodiscard]] double expected_rounds() const { return 1.0 / (1.0 - delta); }
};

/// Exact expected total payoff of the row player.
[[nodiscard]] double expected_payoff(const repeated_donation_game& rdg,
                                     const memory_one_strategy& row,
                                     const memory_one_strategy& col);

/// Both players' expected payoffs in one solve (row first).
/// Test oracle: tests/test_exact_payoff.cpp checks role symmetry with it.
[[nodiscard]] std::pair<double, double> expected_payoffs(
    const repeated_donation_game& rdg, const memory_one_strategy& row,
    const memory_one_strategy& col);

/// Expected (discounted by survival) occupation mass of each joint state
/// over the whole game: q1 (I - delta M)^{-1}. Sums to expected_rounds().
[[nodiscard]] std::vector<double> expected_state_occupation(
    const repeated_donation_game& rdg, const memory_one_strategy& row,
    const memory_one_strategy& col);

/// Expected fraction of rounds in which the row player cooperates.
/// Test oracle: tests/test_rollout.cpp checks play_repeated_game against it.
[[nodiscard]] double cooperation_rate(const repeated_donation_game& rdg,
                                      const memory_one_strategy& row,
                                      const memory_one_strategy& col);

/// Payoff oracle over the paper's strategy set with a fixed game setting;
/// precomputes nothing, but centralizes f(S1, S2) with the shared s1.
class payoff_oracle {
 public:
  payoff_oracle(repeated_donation_game rdg, double s1);

  /// f(S1, S2): expected payoff of the S1 agent against an S2 opponent.
  [[nodiscard]] double payoff(const paper_strategy& s1,
                              const paper_strategy& s2) const;

  /// f(g, S): expected payoff of a GTFT(g) agent against S.
  /// Test oracle: tests/test_exact_payoff.cpp checks it against f_gtft_vs_ad.
  [[nodiscard]] double gtft_payoff(double g, const paper_strategy& s2) const;

  [[nodiscard]] const repeated_donation_game& setting() const { return rdg_; }
  [[nodiscard]] double initial_cooperation() const { return s1_; }

 private:
  repeated_donation_game rdg_;
  double s1_;
};

}  // namespace ppg
