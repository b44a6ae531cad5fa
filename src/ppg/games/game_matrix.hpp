// An arbitrary finite symmetric two-player matrix game: q named strategies
// and a q x q payoff matrix a(mine, theirs) giving the row player's payoff.
// This is the "game" half of the game -> update-rule -> kernel compilation
// contract (DESIGN.md §7): a game_matrix plus an update_rule compiles into a
// population protocol (games/game_protocol.hpp) that runs unchanged on every
// engine, and into a mean-field ODE (games/mean_field.hpp).
//
// Builders cover the classics — the paper's donation game, the general
// prisoner's dilemma, hawk-dove, the stag-hunt coordination game,
// rock-paper-scissors — plus the paper's own strategy set: igt_game_matrix
// re-expresses the repeated donation game over {AC, AD, g_1..g_k} through
// the exact payoff oracle, so the k-IGT path is one instance of the generic
// API.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ppg/games/closed_form.hpp"

namespace ppg {

/// A symmetric matrix game. "Symmetric" means both players share the one
/// strategy set and payoff function — the matrix itself need not be a
/// symmetric matrix (hawk-dove's is not).
class game_matrix {
 public:
  /// `payoffs` is row-major: payoffs[mine * q + theirs] is the payoff of
  /// playing `mine` against `theirs`. Requires at least two strategies,
  /// one (non-empty, unique) name per strategy, and finite payoffs.
  game_matrix(std::vector<std::string> strategy_names,
              std::vector<double> payoffs);

  [[nodiscard]] std::size_t num_strategies() const { return names_.size(); }

  /// Payoff of playing `mine` against an opponent playing `theirs`.
  [[nodiscard]] double payoff(std::size_t mine, std::size_t theirs) const;

  [[nodiscard]] const std::string& strategy_name(std::size_t s) const;
  [[nodiscard]] const std::vector<std::string>& strategy_names() const {
    return names_;
  }

  /// The largest payoff minus the smallest: the normalizing constant
  /// bounded update rules (proportional imitation) divide payoff
  /// differences by.
  [[nodiscard]] double payoff_span() const {
    return max_payoff_ - min_payoff_;
  }

  /// Expected payoff of pure strategy `s` against an opponent drawn from
  /// `mix` (a probability vector of length num_strategies()).
  [[nodiscard]] double expected_payoff(std::size_t s,
                                       const std::vector<double>& mix) const;

  /// Population-average payoff when everyone plays `mix` against `mix`.
  /// Test oracle: the replicator reference in tests/test_game_dynamics.cpp.
  [[nodiscard]] double average_payoff(const std::vector<double>& mix) const;

  /// All pure best responses to an opponent playing `mix`: every strategy
  /// whose expected payoff is within the *absolute* tie tolerance `tol` of
  /// the maximum (tol >= 0 required; tol = 0 is exact comparison). The
  /// tolerance is how degenerate games are handled honestly: payoffs that
  /// tie only up to floating-point noise are reported as joint best
  /// responses rather than arbitrarily ranked, so callers (the solver's
  /// stability classifier, the BR cycle detector) see the true tie
  /// structure. Callers comparing payoffs on very different scales should
  /// pass a tolerance scaled by payoff_span().
  /// Test oracle: tests/test_game_dynamics.cpp checks the shipped games.
  [[nodiscard]] std::vector<std::size_t> best_responses(
      const std::vector<double>& mix, double tol = 1e-12) const;

  /// Same, against an opponent playing pure strategy `theirs` — exact
  /// payoff lookups, no expected-value rounding.
  [[nodiscard]] std::vector<std::size_t> best_responses_to_pure(
      std::size_t theirs, double tol = 1e-12) const;

 private:
  std::vector<std::string> names_;
  std::vector<double> payoffs_;  ///< row-major q x q
  double min_payoff_ = 0.0;
  double max_payoff_ = 0.0;
};

/// The paper's donation game as a 2-strategy matrix over {C, D}:
/// a(C,C) = b-c, a(C,D) = -c, a(D,C) = b, a(D,D) = 0.
[[nodiscard]] game_matrix donation_matrix(const donation_game& game = {});

/// General prisoner's dilemma over {C, D} from (R, S, T, P) payoffs.
[[nodiscard]] game_matrix prisoners_dilemma_matrix(const pd_payoffs& p);

/// Hawk-dove over {H, D}: contested value v, fight cost c with c > v > 0,
/// so the mixed equilibrium plays hawk with probability v/c:
/// a(H,H) = (v-c)/2, a(H,D) = v, a(D,H) = 0, a(D,D) = v/2.
[[nodiscard]] game_matrix hawk_dove_matrix(double value, double cost);

/// Stag hunt over {S, H}: coordination with a payoff-dominant risky
/// equilibrium (stag > hare > 0):
/// a(S,S) = stag, a(S,H) = 0, a(H,S) = a(H,H) = hare.
[[nodiscard]] game_matrix stag_hunt_matrix(double stag = 4.0,
                                           double hare = 3.0);

/// Rock-paper-scissors over {R, P, S}: 0 on the diagonal, +win for the
/// winning strategy, -loss for the losing one (zero-sum when win == loss).
[[nodiscard]] game_matrix rock_paper_scissors_matrix(double win = 1.0,
                                                     double loss = 1.0);

/// The paper's repeated donation game over the strategy set
/// {AC, AD, g_1, ..., g_k} (generosity grid g_j = g_max (j-1)/(k-1)):
/// every entry is the exact expected repeated-game payoff f(S1, S2) from
/// the payoff oracle. Strategy indices follow igt_encoding — 0 = AC,
/// 1 = AD, 2+j = level j — so the matrix composes with igt_ladder_rule and
/// the existing igt population helpers.
[[nodiscard]] game_matrix igt_game_matrix(std::size_t k,
                                          const rd_setting& setting = {},
                                          double g_max = 0.9);

}  // namespace ppg
