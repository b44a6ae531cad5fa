// Stationary distribution computation for finite chains.
#pragma once

#include <vector>

#include "ppg/markov/chain.hpp"

namespace ppg {

/// Result of an iterative stationary computation.
struct stationary_result {
  std::vector<double> distribution;
  std::size_t iterations = 0;
  double residual = 0.0;  ///< TV distance between final iterates
  bool converged = false;
};

/// Power iteration from the uniform distribution until successive iterates
/// are within `tol` in total variation. Suitable for aperiodic chains (all
/// chains in this library are lazy).
/// Test oracle: tests/test_markov.cpp cross-checks solve_stationary.
[[nodiscard]] stationary_result power_iteration_stationary(
    const finite_chain& chain, double tol = 1e-12,
    std::size_t max_iterations = 2'000'000);

/// Direct solve of pi P = pi with sum(pi) = 1 via the dense linear system
/// (P^T - I) pi = 0 with one row replaced by the normalization constraint.
/// Exact up to numerics; intended for small chains.
[[nodiscard]] std::vector<double> solve_stationary(const finite_chain& chain);

}  // namespace ppg
