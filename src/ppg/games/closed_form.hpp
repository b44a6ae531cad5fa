// The paper's closed-form expected payoffs and their derivatives
// (Appendix B.1.5, equations (44)-(46), (47), (57)), plus the Proposition 2.2
// parameter-regime predicate. These are cross-validated against the matrix
// engine in exact_payoff.hpp and against Monte-Carlo rollouts.
#pragma once

#include "ppg/games/exact_payoff.hpp"

namespace ppg {

/// Parameters shared by the closed forms: game (b, c), continuation delta,
/// initial cooperation s1.
struct rd_setting {
  double b = 2.0;
  double c = 1.0;
  double delta = 0.9;
  double s1 = 1.0;

  [[nodiscard]] bool valid() const {
    return b > c && c >= 0.0 && delta >= 0.0 && delta < 1.0 && s1 >= 0.0 &&
           s1 <= 1.0;
  }

  [[nodiscard]] repeated_donation_game to_game() const {
    return {{b, c}, delta};
  }
};

/// Equation (44): f(g, AC) = c(1 - s1) + (b - c)/(1 - delta).
/// Independent of g.
[[nodiscard]] double f_gtft_vs_ac(const rd_setting& s);

/// Equation (45): f(g, AD) = -c s1 - c g delta / (1 - delta).
[[nodiscard]] double f_gtft_vs_ad(const rd_setting& s, double g);

/// Equation (46): f(g, g') for two GTFT agents.
[[nodiscard]] double f_gtft_vs_gtft(const rd_setting& s, double g,
                                    double g_prime);

/// Equation (47): d/dg f(g, g').
/// Paper result, checked by tests/test_closed_form.cpp.
[[nodiscard]] double df_dg_gtft_vs_gtft(const rd_setting& s, double g,
                                        double g_prime);

/// Equation (57): d^2/dg^2 f(g, g').
/// Paper result, checked by tests/test_closed_form.cpp.
[[nodiscard]] double d2f_dg2_gtft_vs_gtft(const rd_setting& s, double g,
                                          double g_prime);

/// Uniform bound L on |d^2/dg^2 f(g, S)| over g, g' in [0, g_max]
/// (Proposition D.3): maximizes the explicit bounds (58)-(59) over the grid
/// corners where they are extremal.
[[nodiscard]] double second_derivative_bound(const rd_setting& s,
                                             double g_max);

/// Proposition 2.2's parameter conditions: s1 in [0,1), delta > c/b, and
/// g_max < 1 - c/(delta b). Under these, f(., g'') is strictly increasing,
/// f(., AC) non-decreasing, and f(., AD) strictly decreasing — i.e. the
/// k-IGT transition rules are locally optimal.
[[nodiscard]] bool proposition_2_2_regime(const rd_setting& s, double g_max);

}  // namespace ppg
