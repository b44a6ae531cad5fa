#include "ppg/games/solver/homotopy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ppg/linalg/lu.hpp"
#include "ppg/linalg/matrix.hpp"
#include "ppg/util/error.hpp"

namespace ppg {

namespace {

/// Geometric ladder factor in (0, 1); smaller is faster but risks losing
/// the principal branch between rungs.
constexpr double decay = 0.8;
/// Per-rung fixed-point residual (L1) demanded before descending.
constexpr double tolerance = 1e-10;
/// Per-rung iteration budget; exceeding it marks the result unconverged
/// but still returns the best point found.
constexpr std::uint64_t max_iterations = 256;

/// softmax(z), max-shifted so the largest exponent is exp(0).
std::vector<double> softmax(const std::vector<double>& z) {
  double top = z[0];
  for (const double v : z) top = std::max(top, v);
  std::vector<double> x(z.size());
  double total = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    x[i] = std::exp(z[i] - top);
    total += x[i];
  }
  for (auto& v : x) v /= total;
  return x;
}

/// Expected payoffs u_i = sum_j a(i, j) x_j.
std::vector<double> expected_payoffs(const game_matrix& g,
                                     const std::vector<double>& x) {
  std::vector<double> u(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    u[i] = g.expected_payoff(i, x);
  }
  return u;
}

/// ||softmax(z) - softmax(A softmax(z) / t)||_1 — the rung's fixed-point
/// defect, measured on the simplex where the certification layer compares
/// points.
double rung_residual(const game_matrix& g, const std::vector<double>& z,
                     double t) {
  const auto x = softmax(z);
  const auto u = expected_payoffs(g, x);
  std::vector<double> y(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) y[i] = u[i] / t;
  const auto target = softmax(y);
  double r = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) r += std::abs(x[i] - target[i]);
  return r;
}

/// Solves the rung's fixed point z = A softmax(z) / t by damped Newton in
/// logit space: the Jacobian of F(z) = A softmax(z)/t - z is
/// J(i,j) = x_j (a(i,j) - u_i)/t - delta_ij (the softmax differential
/// diag(x) - x x^T folded into A). Backtracks on the simplex residual and
/// falls back to a damped fixed-point step when Newton stalls.
homotopy_record solve_rung(const game_matrix& g, std::vector<double>& z,
                           double t) {
  const std::size_t q = g.num_strategies();
  homotopy_record record;
  record.temperature = t;
  double residual = rung_residual(g, z, t);
  while (residual > tolerance &&
         record.iterations < max_iterations) {
    ++record.iterations;
    const auto x = softmax(z);
    const auto u = expected_payoffs(g, x);
    std::vector<double> descent(q);
    for (std::size_t i = 0; i < q; ++i) descent[i] = u[i] / t - z[i];
    matrix jacobian(q, q);
    for (std::size_t i = 0; i < q; ++i) {
      for (std::size_t j = 0; j < q; ++j) {
        jacobian(i, j) = x[j] * (g.payoff(i, j) - u[i]) / t -
                         (i == j ? 1.0 : 0.0);
      }
    }
    std::vector<double> newton;
    bool have_newton = true;
    try {
      std::vector<double> negated(q);
      for (std::size_t i = 0; i < q; ++i) negated[i] = -descent[i];
      newton = lu_decomposition(std::move(jacobian)).solve(std::move(negated));
    } catch (const invariant_error&) {
      have_newton = false;  // singular at a bifurcation: damped step below
    }
    bool accepted = false;
    if (have_newton) {
      double scale = 1.0;
      for (int attempt = 0; attempt < 24 && !accepted; ++attempt) {
        std::vector<double> trial(q);
        for (std::size_t i = 0; i < q; ++i) {
          trial[i] = z[i] + scale * newton[i];
        }
        const double trial_residual = rung_residual(g, trial, t);
        if (trial_residual < residual || trial_residual <= tolerance) {
          z = std::move(trial);
          residual = trial_residual;
          double step = 0.0;
          for (const double d : newton) {
            step = std::max(step, scale * std::abs(d));
          }
          record.step = step;
          accepted = true;
        }
        scale *= 0.5;
      }
    }
    if (!accepted) {
      // Damped fixed-point step z <- z + beta (A x / t - z): a contraction
      // whenever the ladder's rungs are close, and immune to a singular
      // Jacobian.
      const double beta = 0.25;
      double step = 0.0;
      for (std::size_t i = 0; i < q; ++i) {
        z[i] += beta * descent[i];
        step = std::max(step, beta * std::abs(descent[i]));
      }
      residual = rung_residual(g, z, t);
      record.step = step;
    }
  }
  // Recenter the logits (softmax is shift-invariant) so magnitudes do not
  // accumulate down the ladder.
  double mean = 0.0;
  for (const double v : z) mean += v;
  mean /= static_cast<double>(q);
  for (auto& v : z) v -= mean;
  record.residual = residual;
  return record;
}

}  // namespace

homotopy_result follow_logit_path(const game_matrix& g) {
  homotopy_result result;
  result.converged = true;
  std::vector<double> z(g.num_strategies(), 0.0);  // the barycenter
  double t = 8.0 * std::max(g.payoff_span(), 1.0);
  while (true) {
    auto record = solve_rung(g, z, t);
    result.converged = result.converged && record.residual <= tolerance;
    result.total_iterations += record.iterations;
    result.path.push_back(record);
    if (t <= homotopy_end_temperature) break;
    t = std::max(t * decay, homotopy_end_temperature);
  }
  result.mix = softmax(z);
  result.temperature = t;
  result.residual = result.path.back().residual;
  const auto u = expected_payoffs(g, result.mix);
  double best = u[0];
  for (const double v : u) best = std::max(best, v);
  double average = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) average += result.mix[i] * u[i];
  result.nash_gap = best - average;
  return result;
}

}  // namespace ppg
