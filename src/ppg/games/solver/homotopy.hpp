// The interior-point companion to solver/enumeration.hpp: a logit
// (quantal-response) homotopy path follower. At temperature T the smoothed
// equilibrium condition is the fixed point
//
//   x = softmax(A x / T),
//
// which for large T has a unique solution near the barycenter and, as
// T -> 0 along the principal branch, converges to a Nash point of the game
// (for coordination games, the risk-dominant one — the branch through the
// barycenter tracks the basin sizes, not the payoff-dominant corner). The
// follower walks a geometric temperature ladder, warm-starting each rung
// from the last and solving the rung's fixed point by a damped Newton
// iteration in logit space (where the simplex constraint is unconditionally
// satisfied), and logs one convergence record per rung — temperature,
// iterations, residual, last step — in the style of the canonical-section
// iteration of Sun et al.'s PTAS_Game solver (see SNIPPETS.md). The path
// records make non-convergence diagnosable rather than silent; DESIGN.md
// §12 documents the contract.
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/games/game_matrix.hpp"

namespace ppg {

/// One rung of the temperature ladder.
struct homotopy_record {
  double temperature = 0.0;
  std::uint64_t iterations = 0;  ///< Newton/damped steps spent on the rung
  double residual = 0.0;         ///< ||x - softmax(Ax/T)||_1 at acceptance
  double step = 0.0;             ///< last logit-space step, L-infinity
};

/// The last rung: the returned point is the quantal-response equilibrium at
/// this temperature, an O(T) perturbation of the limiting Nash point. The
/// ladder starts at 8 · max(payoff span, 1), high enough that the softmax
/// map is a contraction and the first rung is trivially solvable, and
/// descends by a factor of 0.8 a rung.
inline constexpr double homotopy_end_temperature = 1e-3;

struct homotopy_result {
  std::vector<double> mix;       ///< QRE at the final temperature reached
  double temperature = 0.0;      ///< final rung temperature
  double residual = 0.0;         ///< fixed-point residual at `mix`
  double nash_gap = 0.0;         ///< max_i u_i(mix) - mix^T A mix
  bool converged = false;        ///< every rung met the tolerance
  std::uint64_t total_iterations = 0;
  std::vector<homotopy_record> path;  ///< one record per rung, in order
};

/// Follows the principal quantal-response branch of `g` from the barycenter
/// down the temperature ladder. Each rung may spend 256 iterations to bring
/// its fixed-point residual (L1) to 1e-10; `converged` guarantees that
/// residual at every rung including the last. `nash_gap` measures how close
/// the endpoint is to exact Nash (it is O(homotopy_end_temperature) on a
/// nondegenerate game).
[[nodiscard]] homotopy_result follow_logit_path(const game_matrix& g);

}  // namespace ppg
