// Exact symmetric-Nash enumeration for small strategy counts: for every
// candidate support S the indifference system
//
//   sum_{j in S} a(i, j) x_j = v   for all i in S,   sum_{j in S} x_j = 1
//
// is one (|S|+1) x (|S|+1) linear solve (linalg/lu). A solution is a
// symmetric equilibrium iff the support weights are positive and no pure
// strategy outside S earns more than v against x. The sweep over all 2^q - 1
// supports is exact and exhaustive — every symmetric Nash point of a
// nondegenerate game appears for exactly one support — and is the reference
// the homotopy path follower (solver/homotopy.hpp) and the certification
// layer (solver/certify.hpp) are checked against.
//
// Each equilibrium is classified dynamically: evolutionarily stable (ESS),
// neutrally stable, unstable, or indeterminate. The ESS test is the
// second-order condition on the symmetric part C = (A + A^T)/2 restricted
// to the tangent space of the best-response face — negative definite there
// (checked by Sylvester minors via LU determinants) certifies an ESS; an
// invasion direction with positive quadratic form certifies instability.
// When the support is a strict subset of the best-response set the cone of
// feasible invasion directions is proper and the finite probe below is not
// exhaustive, so undecided boundary cases report `indeterminate` rather
// than guessing (DESIGN.md §12).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ppg/games/game_matrix.hpp"

namespace ppg {

/// Dynamic-stability classification of a symmetric equilibrium.
enum class equilibrium_stability : std::uint8_t {
  ess,               ///< evolutionarily stable: resists every rare mutant
  neutrally_stable,  ///< mutants never gain, some are not expelled (e.g. RPS)
  unstable,          ///< some mutant strictly invades
  indeterminate,     ///< boundary case the finite second-order probe cannot
                     ///< decide (see header comment)
};

[[nodiscard]] const char* equilibrium_stability_name(equilibrium_stability s);

/// One symmetric Nash equilibrium x with x^T A x = payoff.
struct symmetric_equilibrium {
  std::vector<double> mix;           ///< point on the strategy simplex
  std::vector<std::size_t> support;  ///< strategies with positive weight
  double payoff = 0.0;               ///< equilibrium payoff v
  double residual = 0.0;  ///< max indifference/normalization violation
  bool pure = false;      ///< single-strategy support
  equilibrium_stability stability = equilibrium_stability::indeterminate;
};

/// All symmetric Nash equilibria of `g` by exhaustive support enumeration,
/// ordered by support size then lexicographic support. Cost is
/// O(2^q q^3) — exact and fast through q = 12 (checked); use the homotopy
/// follower beyond that. Every returned point satisfies the Nash
/// inequalities to within a payoff slack of 1e-9 · max(1, payoff span);
/// `residual` reports the linear-solve defect.
[[nodiscard]] std::vector<symmetric_equilibrium> enumerate_symmetric_equilibria(
    const game_matrix& g);

/// The pure best-response structure of `g`: br[s] is the lowest-index pure
/// best response to an opponent playing pure s, and `cycles` lists the
/// cycles of that functional graph (each rotated to start at its smallest
/// member, ordered by that member). A fixed point br[s] == s is a cycle of
/// length 1 (a symmetric pure Nash candidate); a longer cycle is the
/// discrete signature of non-convergent best-response dynamics (e.g.
/// rock -> paper -> scissors -> rock).
struct best_response_cycles {
  std::vector<std::size_t> best_response;      ///< functional BR graph
  std::vector<std::vector<std::size_t>> cycles;
  bool has_nontrivial_cycle = false;  ///< any cycle of length >= 2
};

/// Payoffs within 1e-9 of a row's maximum tie for best response.
[[nodiscard]] best_response_cycles find_best_response_cycles(
    const game_matrix& g);

}  // namespace ppg
