#include "ppg/games/solver/certify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ppg/util/error.hpp"

namespace ppg {

namespace {

/// The mean-field relaxation behind prediction() (games/mean_field.hpp):
/// Euler step, residual demanded, and parallel-time horizon.
constexpr double relax_dt = 0.02;
constexpr double relax_tol = 1e-10;
constexpr double relax_t_max = 4000.0;

double l1_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += std::abs(a[i] - b[i]);
  return total;
}

/// Index of the equilibrium nearest `point` in L1.
std::size_t nearest(const std::vector<symmetric_equilibrium>& equilibria,
                    const std::vector<double>& point, double* distance) {
  std::size_t best = 0;
  double best_distance = l1_distance(equilibria[0].mix, point);
  for (std::size_t e = 1; e < equilibria.size(); ++e) {
    const double d = l1_distance(equilibria[e].mix, point);
    if (d < best_distance) {
      best = e;
      best_distance = d;
    }
  }
  if (distance != nullptr) *distance = best_distance;
  return best;
}

}  // namespace

equilibrium_certifier::equilibrium_certifier(
    game_matrix game, std::shared_ptr<const update_rule> rule,
    revision_discipline discipline, double tolerance)
    : game_(std::move(game)), tolerance_(tolerance) {
  PPG_CHECK(rule != nullptr, "certification needs an update rule");
  PPG_CHECK(tolerance_ > 0.0, "certification tolerance must be positive");
  equilibria_ = enumerate_symmetric_equilibria(game_);
  PPG_CHECK(!equilibria_.empty(),
            "support enumeration found no symmetric equilibrium (Nash's "
            "theorem guarantees one exists)");
  homotopy_ = follow_logit_path(game_);

  const game_protocol proto(game_, std::move(rule), discipline);
  const mean_field_ode ode(proto);
  const std::size_t q = game_.num_strategies();
  const std::vector<double> barycenter(q, 1.0 / static_cast<double>(q));
  prediction_ =
      relax_to_fixed_point(ode, barycenter, relax_dt, relax_tol, relax_t_max);
  predicted_equilibrium_ = nearest(equilibria_, prediction_.state, nullptr);
}

certification equilibrium_certifier::certify(
    const std::vector<double>& census_fractions) const {
  PPG_CHECK(census_fractions.size() == game_.num_strategies(),
            "census width must match the game's strategy count");
  certification verdict;
  verdict.nearest_equilibrium =
      nearest(equilibria_, census_fractions, &verdict.l1_to_equilibrium);
  verdict.tv_to_equilibrium = 0.5 * verdict.l1_to_equilibrium;
  verdict.tv_to_prediction =
      0.5 * l1_distance(census_fractions, prediction_.state);
  double best = -std::numeric_limits<double>::infinity();
  double average = 0.0;
  for (std::size_t i = 0; i < census_fractions.size(); ++i) {
    const double u = game_.expected_payoff(i, census_fractions);
    best = std::max(best, u);
    average += census_fractions[i] * u;
  }
  verdict.nash_gap = best - average;
  verdict.rule_predicts_equilibrium =
      verdict.nearest_equilibrium == predicted_equilibrium_;
  verdict.certified = prediction_trusted() &&
                      verdict.tv_to_prediction <= tolerance_;
  return verdict;
}

}  // namespace ppg
