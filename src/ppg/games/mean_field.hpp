// The mean-field (fluid) limit of a kernel protocol: for census fractions
// x over the q states, the expected per-interaction state change under the
// idealized with-replacement pair law P(i, r) = x_i x_r gives the ODE
//
//   dx_u/dt = sum_{i,r} x_i x_r * E[ Delta_u | kernel(i, r) ],
//
// with t in parallel-time units (n interactions per unit t). The drift is
// extracted once from the same compiled kernel_table the engines execute, so
// a simulation and its deterministic limit can never disagree about the
// dynamics being approximated. RK4 integration with a simplex projection,
// plus a fixed-point relaxer, support cross-checking engine runs against
// the ODE (DESIGN.md §7 discusses when the approximation is trusted).
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/games/game_matrix.hpp"
#include "ppg/pp/kernel.hpp"

namespace ppg {

/// The drift field extracted from a protocol's compiled kernel_table, so a
/// kernel the engines would reject is rejected here too; the protocol may
/// be discarded after construction.
class mean_field_ode {
 public:
  explicit mean_field_ode(const protocol& proto);

  /// Number of states (the ODE lives on the q-simplex).
  [[nodiscard]] std::size_t dimension() const { return q_; }

  /// dx/dt at census fractions x (length q). Coordinates always sum to 0,
  /// so the simplex is invariant.
  [[nodiscard]] std::vector<double> drift(const std::vector<double>& x) const;

 private:
  /// One ordered state pair with a non-trivial expected change.
  struct pair_term {
    agent_state initiator = 0;
    agent_state responder = 0;
    /// Sparse expected change E[Delta | pair]: (state, coefficient).
    std::vector<std::pair<agent_state, double>> delta;
  };

  std::size_t q_;
  std::vector<pair_term> terms_;
};

/// One classical RK4 step of size dt from x, then projection back onto the
/// simplex (clamping the O(dt^5) negative undershoots near the boundary and
/// renormalizing the total mass to 1).
[[nodiscard]] std::vector<double> rk4_simplex_step(const mean_field_ode& ode,
                                                   const std::vector<double>& x,
                                                   double dt);

/// A recorded mean-field trajectory: states[i] is the solution at times[i].
struct mean_field_trajectory {
  std::vector<double> times;
  std::vector<std::vector<double>> states;
};

/// Integrates from x0 (a probability vector of length ode.dimension()) for
/// `steps` RK4 steps of size dt, recording every `record_every` steps and
/// always recording the initial and final states.
[[nodiscard]] mean_field_trajectory integrate_mean_field(
    const mean_field_ode& ode, std::vector<double> x0, double dt,
    std::uint64_t steps, std::uint64_t record_every = 1);

/// Result of relaxing the ODE toward a fixed point — a full convergence
/// report, not just the last iterate: callers must branch on `converged`
/// (an unconverged relaxation means the dynamics cycle or drift on the
/// horizon, and `state` is then just where integration stopped — see
/// DESIGN.md §12 on when the prediction is trusted).
struct mean_field_fixed_point {
  std::vector<double> state;
  double time = 0.0;               ///< integration time spent
  double residual = 0.0;           ///< ||drift||_1 at `state`
  std::uint64_t iterations = 0;    ///< RK4 steps taken
  bool converged = false;          ///< residual <= tol before t_max
};

/// Integrates from x0 until ||drift||_1 <= tol (converged) or t_max is
/// reached. A fixed point of the mean-field ODE is the deterministic-limit
/// prediction for the engines' stationary census fractions.
[[nodiscard]] mean_field_fixed_point relax_to_fixed_point(
    const mean_field_ode& ode, std::vector<double> x0, double dt, double tol,
    double t_max);

/// The classical replicator drift x_u (f_u(x) - f_avg(x)) of a matrix game
/// — the reference dynamics mean-field limits are compared against. For a
/// zero-sum game, the mean field of proportional imitation equals this
/// field scaled by 2 rate / payoff_span (pinned in tests/test_mean_field).
/// Test oracle, used by tests/test_mean_field.cpp.
[[nodiscard]] std::vector<double> replicator_drift(
    const game_matrix& g, const std::vector<double>& x);

}  // namespace ppg
