// Closed-form stationary law of the (k, a, b, m)-Ehrenfest process
// (Theorem 2.4): multinomial with parameters m and p_j ∝ lambda^{j-1},
// lambda = a/b.
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/ehrenfest/process.hpp"

namespace ppg {

/// The per-urn stationary probabilities (p_1, ..., p_k), p_j ∝ lambda^{j-1}.
[[nodiscard]] std::vector<double> ehrenfest_stationary_probs(
    const ehrenfest_params& params);

/// Stationary PMF at a specific count vector x in ∆^m_k.
[[nodiscard]] double ehrenfest_stationary_pmf(
    const ehrenfest_params& params, const std::vector<std::uint64_t>& x);

/// Stationary mean count vector: E[pi_j] = m * p_j.
[[nodiscard]] std::vector<double> ehrenfest_stationary_mean(
    const ehrenfest_params& params);

/// Draws a sample from the stationary law.
/// Paper result (Theorem 2.5's law), checked by tests/test_ehrenfest.cpp.
[[nodiscard]] std::vector<std::uint64_t> sample_ehrenfest_stationary(
    const ehrenfest_params& params, rng& gen);

}  // namespace ppg
