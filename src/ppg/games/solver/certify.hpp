// The certification layer: turns a stationary census an engine produced
// into a checkable claim against an independently computed equilibrium set.
// For one recipe — game x update rule x revision discipline — the certifier
// computes, once:
//
//   1. the game's symmetric Nash equilibria (solver/enumeration.hpp),
//   2. the limiting point of the logit homotopy (solver/homotopy.hpp), and
//   3. the *rule's* own predicted limit: the mean-field fixed point of the
//      compiled protocol, relaxed from the barycenter (games/mean_field.hpp)
//      — the rule's dynamics need not settle on a Nash point of the game
//      (a logit rule at positive temperature settles on a smoothed point;
//      proportional imitation follows the replicator field, which can orbit).
//
// certify() then measures a time-averaged census against all three and
// emits a verdict: the nearest equilibrium and its L1/TV distance, the TV
// distance to the rule's predicted limit, the census's own Nash gap, and a
// `certified` flag — the census reproduced the predicted limit, and that
// prediction is trusted (the relaxation converged). DESIGN.md §12 states
// when the prediction is trustworthy: a unique attracting fixed point
// certifies; cycles or drift (an unconverged relaxation) yield
// prediction_trusted() == false, and certify() refuses to certify rather
// than comparing against a point that means nothing.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/mean_field.hpp"
#include "ppg/games/solver/enumeration.hpp"
#include "ppg/games/solver/homotopy.hpp"
#include "ppg/games/update_rule.hpp"

namespace ppg {

/// The verdict on one census.
struct certification {
  std::size_t nearest_equilibrium = 0;  ///< index into equilibria()
  double l1_to_equilibrium = 0.0;       ///< ||census - that equilibrium||_1
  double tv_to_equilibrium = 0.0;       ///< total variation = L1 / 2
  double tv_to_prediction = 0.0;        ///< TV(census, mean-field limit)
  double nash_gap = 0.0;  ///< max_i u_i(census) - census^T A census
  bool rule_predicts_equilibrium = false;  ///< census and the rule's limit
                                           ///< sit nearest the same
                                           ///< equilibrium
  bool certified = false;  ///< prediction trusted and census within
                           ///< tolerance of it
};

/// Computes the equilibrium structure of one recipe at construction, then
/// certifies any number of censuses against it.
class equilibrium_certifier {
 public:
  /// `tolerance` is the largest TV(census, predicted limit) a certified
  /// verdict allows. It covers both the engine's O(1/sqrt(n)) fluctuation
  /// scale and the mean-field approximation error; the g5 bench uses 0.03
  /// at n = 10^4 (sized by stag-hunt, whose slow mixing inflates the
  /// time-average error).
  equilibrium_certifier(
      game_matrix game, std::shared_ptr<const update_rule> rule,
      revision_discipline discipline = revision_discipline::one_way,
      double tolerance = 0.02);

  /// The game's symmetric Nash equilibria; non-empty (Nash's theorem, and
  /// the enumeration is exhaustive), so certify() always has a nearest
  /// point.
  [[nodiscard]] const std::vector<symmetric_equilibrium>& equilibria() const {
    return equilibria_;
  }

  /// The logit-homotopy limiting point and its convergence records.
  [[nodiscard]] const homotopy_result& limiting_point() const {
    return homotopy_;
  }

  /// The rule's predicted limit: the compiled protocol's mean-field fixed
  /// point relaxed from the barycenter.
  [[nodiscard]] const mean_field_fixed_point& prediction() const {
    return prediction_;
  }

  /// Whether prediction() may be compared against at all: the relaxation
  /// (Euler step 0.02) settled to a residual of 1e-10 within parallel time
  /// 4000. False means the dynamics cycle or drift on that horizon —
  /// certify() then reports distances but never certifies.
  [[nodiscard]] bool prediction_trusted() const {
    return prediction_.converged;
  }

  /// Verdict on one census (fractions over the game's strategies).
  [[nodiscard]] certification certify(
      const std::vector<double>& census_fractions) const;

 private:
  game_matrix game_;
  double tolerance_;
  std::vector<symmetric_equilibrium> equilibria_;
  homotopy_result homotopy_;
  mean_field_fixed_point prediction_;
  /// The equilibrium nearest prediction(): certify() reports whether a
  /// census's nearest equilibrium is this one.
  std::size_t predicted_equilibrium_ = 0;
};

}  // namespace ppg
