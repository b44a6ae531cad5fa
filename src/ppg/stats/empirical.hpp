// Comparisons between empirical and theoretical discrete distributions.
#pragma once

#include <vector>

namespace ppg {

/// Total variation distance between two distributions on the same finite
/// support: (1/2) * sum_i |p_i - q_i|. Inputs must have equal length; they
/// are treated as given (not re-normalized).
[[nodiscard]] double total_variation(const std::vector<double>& p,
                                     const std::vector<double>& q);

/// Checks that `p` is a probability vector: entries >= -tol and sums to 1
/// within `tol`.
[[nodiscard]] bool is_distribution(const std::vector<double>& p,
                                   double tol = 1e-9);

/// Mean of a distribution over values: sum_i p_i * values_i.
[[nodiscard]] double distribution_mean(const std::vector<double>& p,
                                       const std::vector<double>& values);

/// Variance of a distribution over values.
[[nodiscard]] double distribution_variance(const std::vector<double>& p,
                                           const std::vector<double>& values);

}  // namespace ppg
