// Closed-form discrete distributions used throughout the paper: binomial,
// multinomial, and hypergeometric PMFs (Theorem 2.4's stationary laws and
// the multibatch engine's aggregation laws). The matching samplers live in
// stats/discrete_sampling.hpp.
#pragma once

#include <cstdint>
#include <vector>

namespace ppg {

/// Thread-safe log Γ(x). std::lgamma is NOT reentrant on glibc (it writes
/// the process-global `signgam`), which is a data race once samplers run on
/// worker threads; every lgamma in the library goes through this wrapper,
/// which uses the reentrant lgamma_r where the platform provides it.
[[nodiscard]] double log_gamma(double x);

/// log_factorial is tabulated below this, Stirling's series above.
inline constexpr std::uint64_t log_factorial_table_size = 126;

/// log k!: exact to double rounding from a table below 126, and the
/// Stirling series (k + 1/2) log k - k + log(2 pi)/2 + 1/(12k) - 1/(360k^3)
/// above, whose truncation error there is below 3e-14. No lgamma call, so
/// the rejection samplers (stats/discrete_sampling.hpp) can afford it per
/// candidate.
[[nodiscard]] double log_factorial(std::uint64_t k);

/// log(a! / b!), to ~1e-13 relative even when a and b are close and huge
/// (up to ~3e9), where log_factorial(a) - log_factorial(b) would cancel
/// terms of magnitude up to ~6e10. Zero when a == b. The hypergeometric
/// inversion's P(0) is two of these; the rejection samplers fold theirs
/// (stats/discrete_sampling.hpp) and call this only where an argument is
/// below 126, and the fold's tests check the fold against it.
[[nodiscard]] double log_factorial_ratio(std::uint64_t a, std::uint64_t b);

/// log of the binomial coefficient C(n, k).
[[nodiscard]] double log_binomial_coefficient(std::uint64_t n,
                                              std::uint64_t k);

/// log of the multinomial coefficient m! / (x_1! ... x_k!); the x_i must sum
/// to m (checked).
[[nodiscard]] double log_multinomial_coefficient(
    std::uint64_t m, const std::vector<std::uint64_t>& x);

/// Binomial(n, p) PMF at k.
[[nodiscard]] double binomial_pmf(std::uint64_t n, double p, std::uint64_t k);

/// Multinomial(m, probs) PMF at the count vector x (x must sum to m).
[[nodiscard]] double multinomial_pmf(std::uint64_t m,
                                     const std::vector<double>& probs,
                                     const std::vector<std::uint64_t>& x);

/// Mean vector of Multinomial(m, probs): m * probs.
[[nodiscard]] std::vector<double> multinomial_mean(
    std::uint64_t m, const std::vector<double>& probs);

/// Hypergeometric(total, marked, draws) PMF at x: the probability that a
/// uniform sample of `draws` items, without replacement, from `total` items
/// of which `marked` are marked contains exactly x marked items.
/// Test oracle: tests/test_discrete_sampling.cpp chi-squares the samplers.
[[nodiscard]] double hypergeometric_pmf(std::uint64_t total,
                                        std::uint64_t marked,
                                        std::uint64_t draws, std::uint64_t x);

/// Multivariate hypergeometric PMF: the probability that a uniform sample of
/// sum(x) items, without replacement, from a population with `counts[i]`
/// items of category i contains exactly x[i] of each category.
/// Test oracle: tests/test_discrete_sampling.cpp chi-squares the MVH sampler.
[[nodiscard]] double multivariate_hypergeometric_pmf(
    const std::vector<std::uint64_t>& counts,
    const std::vector<std::uint64_t>& x);

/// The geometric-weight distribution p_j ∝ lambda^{j-1} on {1, ..., k}
/// (0-indexed vector of length k). This is the per-coordinate marginal of the
/// paper's stationary multinomials (Theorems 2.4 and 2.7).
[[nodiscard]] std::vector<double> geometric_weights(std::size_t k,
                                                    double lambda);

}  // namespace ppg
