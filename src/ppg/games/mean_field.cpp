#include "ppg/games/mean_field.hpp"

#include <cmath>
#include <utility>

#include "ppg/util/error.hpp"

namespace ppg {

namespace {

void check_simplex_point(const std::vector<double>& x, std::size_t q) {
  PPG_CHECK(x.size() == q, "state width must match the ODE dimension");
  double total = 0.0;
  for (const double v : x) {
    PPG_CHECK(v >= 0.0, "census fractions must be non-negative");
    total += v;
  }
  PPG_CHECK(std::abs(total - 1.0) <= 1e-9,
            "census fractions must sum to 1");
}

/// Clamp tiny negative undershoots and renormalize the mass to 1.
void project_to_simplex(std::vector<double>& x) {
  double total = 0.0;
  for (auto& v : x) {
    PPG_CHECK(v > -1e-6,
              "state left the simplex: reduce the RK4 step size dt");
    if (v < 0.0) v = 0.0;
    total += v;
  }
  PPG_CHECK(total > 0.0, "state collapsed to zero mass");
  for (auto& v : x) v /= total;
}

}  // namespace

mean_field_ode::mean_field_ode(const protocol& proto)
    : q_(proto.num_states()) {
  // Compiling validates the kernel (states in range, probabilities positive
  // and summing to 1), which is what makes the drift sum to 0.
  const kernel_table kernel(proto);
  std::vector<double> delta(q_, 0.0);
  for (agent_state i = 0; i < q_; ++i) {
    for (agent_state r = 0; r < q_; ++r) {
      for (auto& d : delta) d = 0.0;
      for (std::size_t k = 0; k < kernel.num_outcomes(i, r); ++k) {
        const outcome o = kernel.outcome_at(i, r, k);
        delta[o.initiator] += o.probability;
        delta[o.responder] += o.probability;
      }
      delta[i] -= 1.0;
      delta[r] -= 1.0;
      pair_term term{i, r, {}};
      for (agent_state u = 0; u < q_; ++u) {
        if (delta[u] != 0.0) term.delta.emplace_back(u, delta[u]);
      }
      if (!term.delta.empty()) terms_.push_back(std::move(term));
    }
  }
}

std::vector<double> mean_field_ode::drift(const std::vector<double>& x) const {
  PPG_CHECK(x.size() == q_, "state width must match the ODE dimension");
  std::vector<double> out(q_, 0.0);
  for (const auto& term : terms_) {
    const double weight = x[term.initiator] * x[term.responder];
    if (weight == 0.0) continue;
    for (const auto& [state, coefficient] : term.delta) {
      out[state] += weight * coefficient;
    }
  }
  return out;
}

namespace {

/// RK4 core with the first stage precomputed (relax_to_fixed_point already
/// evaluates drift(x) for its residual; recomputing it would make every
/// step 5 drift evaluations instead of 4).
std::vector<double> rk4_from(const mean_field_ode& ode,
                             const std::vector<double>& x,
                             const std::vector<double>& k1, double dt) {
  PPG_CHECK(dt > 0.0, "RK4 step size must be positive");
  const std::size_t q = ode.dimension();
  PPG_CHECK(x.size() == q, "state width must match the ODE dimension");
  std::vector<double> stage(q);
  for (std::size_t u = 0; u < q; ++u) stage[u] = x[u] + 0.5 * dt * k1[u];
  const auto k2 = ode.drift(stage);
  for (std::size_t u = 0; u < q; ++u) stage[u] = x[u] + 0.5 * dt * k2[u];
  const auto k3 = ode.drift(stage);
  for (std::size_t u = 0; u < q; ++u) stage[u] = x[u] + dt * k3[u];
  const auto k4 = ode.drift(stage);
  std::vector<double> next(q);
  for (std::size_t u = 0; u < q; ++u) {
    next[u] = x[u] + dt / 6.0 * (k1[u] + 2.0 * k2[u] + 2.0 * k3[u] + k4[u]);
  }
  project_to_simplex(next);
  return next;
}

}  // namespace

std::vector<double> rk4_simplex_step(const mean_field_ode& ode,
                                     const std::vector<double>& x,
                                     double dt) {
  PPG_CHECK(x.size() == ode.dimension(),
            "state width must match the ODE dimension");
  return rk4_from(ode, x, ode.drift(x), dt);
}

mean_field_trajectory integrate_mean_field(const mean_field_ode& ode,
                                           std::vector<double> x0, double dt,
                                           std::uint64_t steps,
                                           std::uint64_t record_every) {
  check_simplex_point(x0, ode.dimension());
  PPG_CHECK(record_every > 0, "recording interval must be positive");
  mean_field_trajectory trajectory;
  trajectory.times.push_back(0.0);
  trajectory.states.push_back(x0);
  std::vector<double> x = std::move(x0);
  for (std::uint64_t i = 1; i <= steps; ++i) {
    x = rk4_simplex_step(ode, x, dt);
    if (i % record_every == 0 || i == steps) {
      trajectory.times.push_back(static_cast<double>(i) * dt);
      trajectory.states.push_back(x);
    }
  }
  return trajectory;
}

mean_field_fixed_point relax_to_fixed_point(const mean_field_ode& ode,
                                            std::vector<double> x0, double dt,
                                            double tol, double t_max) {
  check_simplex_point(x0, ode.dimension());
  PPG_CHECK(tol > 0.0 && t_max > 0.0,
            "fixed-point tolerance and horizon must be positive");
  mean_field_fixed_point result;
  result.state = std::move(x0);
  while (true) {
    const auto k1 = ode.drift(result.state);
    double residual = 0.0;
    for (const double d : k1) residual += std::abs(d);
    result.residual = residual;
    if (residual <= tol) {
      result.converged = true;
      return result;
    }
    if (result.time >= t_max) return result;
    result.state = rk4_from(ode, result.state, k1, dt);
    result.time += dt;
    ++result.iterations;
  }
}

std::vector<double> replicator_drift(const game_matrix& g,
                                     const std::vector<double>& x) {
  const std::size_t q = g.num_strategies();
  PPG_CHECK(x.size() == q, "state width must match the strategy count");
  const double average = g.average_payoff(x);
  std::vector<double> out(q);
  for (std::size_t u = 0; u < q; ++u) {
    out[u] = x[u] * (g.expected_payoff(u, x) - average);
  }
  return out;
}

}  // namespace ppg
