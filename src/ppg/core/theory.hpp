// Closed-form theory predictions for the k-IGT dynamics: the average
// stationary generosity (Proposition 2.8 and Corollary C.1), the variance
// bound (Proposition D.2), and the Theorem 2.9 parameter-regime conditions
// under which the mean stationary distribution is an O(1/k)-approximate
// distributional equilibrium.
#pragma once

#include <cstddef>

#include "ppg/games/closed_form.hpp"

namespace ppg {

/// Proposition 2.8: the average stationary generosity
///   g_avg = g_max * ( lambda^k/(lambda^k - 1)
///                     - (1/(k-1)) (lambda/(lambda-1))
///                       (lambda^{k-1} - 1)/(lambda^k - 1) )
/// for beta != 1/2 (lambda = (1-beta)/beta), and g_max/2 for beta = 1/2.
[[nodiscard]] double average_stationary_generosity(double beta, std::size_t k,
                                                   double g_max);

/// Corollary C.1 lower bound (beta < 1/2, lambda > 1):
/// g_avg >= g_max (1 - 1/((lambda-1)(k-1))).
[[nodiscard]] double average_generosity_lower_bound(double beta,
                                                    std::size_t k,
                                                    double g_max);

/// Proposition D.2's bound on Var_{g ~ mu}[g]: 16/(k-1)^2 (stated for the
/// lambda >= 2 regime of Theorem 2.9).
/// Paper result, checked by tests/test_theory.cpp.
[[nodiscard]] double generosity_variance_bound(std::size_t k);

/// Exact variance of g under the normalized mean stationary distribution
/// mu(j) ∝ lambda^{j-1} on the grid G (used to confirm the bound is loose
/// but valid).
[[nodiscard]] double stationary_generosity_variance(double beta,
                                                    std::size_t k,
                                                    double g_max);

/// The parameter-regime conditions of Theorem 2.9, evaluated one by one for
/// diagnosability.
///
/// Reproduction note (see EXPERIMENTS.md, experiment E5): the paper's
/// appendix simplifies the payoff difference f(g_i, g_k) - f(g_avg, g_k) in
/// equation (63) to (g_i - g_avg)(1-s1)(b-c)(delta^2(1-g_max)+delta)/Phi.
/// Direct algebra on the closed form (46) instead gives the bracket
///   (b-c) delta^2 (1-g_max) + b delta^3 (1-g_max)^2 - c delta,
/// which can be *negative* for parameters that satisfy all of the theorem's
/// literal constraints (e.g. g_max close to 1 with moderate delta). When it
/// is negative, the best deviation is g = 0 and the equilibrium gap Psi is
/// Theta(1), not O(1/k). We therefore additionally expose the corrected
/// positivity condition `deviation_gain_ok` below; it is equivalent to
/// d/dg f(g, g_max) > 0 (local gain of generosity against the most generous
/// opponent, cf. Proposition 2.2) dominating the AD loss term
/// beta delta c/(1-delta). With it, Psi = O(1/k) reproduces cleanly.
struct theorem_2_9_conditions {
  bool s1_ok = false;          ///< s1 in [0, 1)
  bool lambda_ok = false;      ///< lambda = (1-beta)/beta >= 2
  bool reward_ratio_ok = false;  ///< b/c > 1 + beta c / (gamma (1 - s1))
  bool delta_ok = false;       ///< delta < sqrt(1 - beta c/(gamma (b-c)(1-s1)))
  /// g_max < 1 - (1/delta)(beta c/(gamma (b-c)(1-delta)(1-s1)) - 1)
  bool g_max_ok = false;
  bool deviation_gain_ok = false;  ///< corrected condition (see above)

  double delta_limit = 0.0;  ///< the RHS of the delta condition
  double g_max_limit = 0.0;  ///< the RHS of the g_max condition (capped at 1)
  /// gamma (1-s1) [(b-c) d^2 (1-g_max) + b d^3 (1-g_max)^2 - c d]
  ///   - beta d c/(1-d); positive means deviating upward is the best
  /// response, placing the best deviation within O(1/k) of the mean.
  double deviation_coefficient = 0.0;

  /// The paper's literal constraint set.
  [[nodiscard]] bool paper_conditions() const {
    return s1_ok && lambda_ok && reward_ratio_ok && delta_ok && g_max_ok;
  }
  /// Paper constraints plus the corrected deviation-gain condition; this is
  /// the regime in which the O(1/k) convergence is actually observed.
  [[nodiscard]] bool all() const {
    return paper_conditions() && deviation_gain_ok;
  }
};

/// Evaluates the Theorem 2.9 regime for a game setting and population
/// fractions. `beta` and `gamma` are the AD/GTFT fractions.
[[nodiscard]] theorem_2_9_conditions check_theorem_2_9(
    const rd_setting& setting, double beta, double gamma, double g_max);

/// Searches for a valid Theorem 2.9 configuration: given population
/// fractions and s1, returns an rd_setting and g_max satisfying all
/// conditions (with safety margins), or throws if the fractions admit none
/// within the searched grid. Used by tests/benches to construct admissible
/// experiments.
struct theorem_2_9_instance {
  rd_setting setting;
  double g_max = 0.0;
};
[[nodiscard]] theorem_2_9_instance make_theorem_2_9_instance(double beta,
                                                             double gamma,
                                                             double s1);

}  // namespace ppg
