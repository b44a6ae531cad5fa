// Distributional equilibria (Definitions 1.1 and 1.2) and the equilibrium
// gap Psi = max_i E[f(g_i, S)] - E_{g~mu, S~mu_hat}[f(g, S)] that
// Theorem 2.9 bounds by O(1/k).
#pragma once

#include <cstddef>
#include <vector>

#include "ppg/core/population_config.hpp"
#include "ppg/core/theory.hpp"
#include "ppg/games/exact_payoff.hpp"
#include "ppg/linalg/matrix.hpp"

namespace ppg {

/// The distribution mu_hat over the full strategy set
/// S = {AC, AD, g_1, ..., g_k} induced by mu over G (equation (3)):
/// mu_hat = (alpha, beta, gamma*mu(1), ..., gamma*mu(k)).
[[nodiscard]] std::vector<double> induced_full_distribution(
    const std::vector<double>& mu, double alpha, double beta, double gamma);

/// Result of a Definition 1.2 gap computation.
struct de_result {
  /// The gap Psi (>= 0); mu is an eps-DE for any eps >= Psi.
  double epsilon = 0.0;
  std::size_t best_level = 0;  ///< argmax_i of the deviation payoff
  double mean_payoff = 0.0;  ///< E_{g~mu, S~mu_hat}[f(g, S)]
  double best_payoff = 0.0;  ///< max_i E_{S~mu_hat}[f(g_i, S)]
  std::vector<double> deviation_payoffs;  ///< E_{S~mu_hat}[f(g_i, S)] per level
};

/// Computes Definition 1.2 quantities for the k-IGT setting. Expected
/// payoffs f come from the paper's closed forms (Appendix B.1.5), which the
/// test suite cross-validates against the matrix engine.
class igt_equilibrium_analyzer {
 public:
  /// `fractions` are (alpha, beta, gamma); k and g_max define the grid G.
  igt_equilibrium_analyzer(rd_setting setting, double alpha, double beta,
                           double gamma, std::size_t k, double g_max);

  /// Gap of an arbitrary mu over G (length k, a distribution).
  [[nodiscard]] de_result gap(const std::vector<double>& mu) const;

  /// Gap of the normalized mean stationary distribution of the k-IGT
  /// dynamics, mu(j) ∝ lambda^{j-1} (the object of Theorem 2.9).
  [[nodiscard]] de_result stationary_gap() const;

  /// The normalized mean stationary distribution itself.
  [[nodiscard]] std::vector<double> stationary_mu() const;

  /// E_{S~mu_hat}[f(g, S)] for an arbitrary generosity g in [0, g_max]
  /// (used for the f(g_tilde, S) comparisons in the proof of Theorem 2.9).
  /// Test oracle: tests/test_equilibrium.cpp checks the deviation payoffs.
  [[nodiscard]] double payoff_vs_mixture(double g,
                                         const std::vector<double>& mu) const;

  /// Continuous best response: the generosity g* in [0, g_max] maximizing
  /// payoff_vs_mixture(g, mu), found by golden-section search refined over
  /// a coarse scan (payoff is smooth but not necessarily unimodal over the
  /// whole interval, hence the scan). The distance |g_avg - g*| is the
  /// quantity the Theorem 2.9 proof bounds by O(1/k).
  /// Test oracle: tests/test_properties.cpp checks the DE analysis with it.
  [[nodiscard]] double best_response_generosity(
      const std::vector<double>& mu) const;

  [[nodiscard]] const std::vector<double>& grid() const { return grid_; }
  [[nodiscard]] const rd_setting& setting() const { return setting_; }

 private:
  rd_setting setting_;
  double alpha_;
  double beta_;
  double gamma_;
  std::size_t k_;
  std::vector<double> grid_;
  // Precomputed payoff tables.
  double f_vs_ac_;                       // f(g, AC): independent of g
  std::vector<double> f_vs_ad_;          // f(g_i, AD)
  matrix f_vs_gtft_;                     // f(g_i, g_j)
};

/// Definition 1.1 for a general finite two-player game: `u1(i, j)` is the
/// payoff of the first agent playing strategy i against j, `u2(i, j)` the
/// second agent's payoff in the same interaction. Returns the smallest
/// epsilon for which mu is an epsilon-DE (the larger of the two players'
/// deviation gaps, clamped at 0).
struct general_de_result {
  double epsilon1 = 0.0;  ///< first inequality's gap
  double epsilon2 = 0.0;  ///< second inequality's gap
  [[nodiscard]] double epsilon() const {
    return epsilon1 > epsilon2 ? epsilon1 : epsilon2;
  }
};
[[nodiscard]] general_de_result general_de_gap(const matrix& u1,
                                               const matrix& u2,
                                               const std::vector<double>& mu);

/// Builds the full (k+2) x (k+2) expected-payoff matrix over
/// S = {AC, AD, g_1, ..., g_k} with the exact matrix engine; entry (i, j)
/// is f(S_i, S_j). Used to cross-check the closed-form analyzer and to run
/// Definition 1.1 on the whole game.
[[nodiscard]] matrix full_payoff_matrix(const rd_setting& setting,
                                        std::size_t k, double g_max);

/// Population welfare: the expected payoff of a uniformly random agent in
/// the "average interaction" — W(mu_hat) = E_{S1, S2 ~ mu_hat}[f(S1, S2)].
/// `payoffs` is a full payoff matrix over the same support as mu_hat.
/// (For symmetric payoff structures this equals the per-capita rate at
/// which the population accumulates reward.)
[[nodiscard]] double population_welfare(const matrix& payoffs,
                                        const std::vector<double>& mu_hat);

}  // namespace ppg
