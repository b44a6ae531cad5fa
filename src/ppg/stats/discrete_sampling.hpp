// Exact samplers for the discrete distributions the engines aggregate with:
// binomial, hypergeometric, multivariate hypergeometric, and multinomial
// draws, and the multibatch engine's birthday law, all built on the
// deterministic ppg::rng. Closed-form PMFs live in stats/distributions.hpp;
// this layer is the sampling side.
//
// Every sampler is exact in law up to double rounding over its whole
// parameter range, and costs O(1) expected uniforms per univariate draw at
// the population sizes the multibatch engine needs (n up to ~3e9, draws up
// to ~n). Small expected counts take one uniform and a walk of the pmf from
// 0 (binomial mean < 14, hypergeometric mean < 1) or sequential draws in
// integer arithmetic (hypergeometric draws <= 8); larger ones take the
// textbook rejection samplers BTRS (binomial) and HRUA (hypergeometric),
// whose acceptance tests take a few logs and no lgamma. See DESIGN.md §8
// for each branch's law error and per-call cost.
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/util/rng.hpp"

namespace ppg {

/// Draws from Binomial(n, p). Exact for every n: with q = min(p, 1-p) (a
/// p > 1/2 draw is flipped) and n*q < 14 it inverts one uniform by walking
/// the pmf up from (1-q)^n, O(n*q + 1) multiplies; from n*q = 14 on it runs
/// Hörmann's BTRS, transformed rejection with squeeze (1993), in O(1)
/// expected uniform pairs.
[[nodiscard]] std::uint64_t sample_binomial(std::uint64_t n, double p,
                                            rng& gen);

/// Draws the number of marked items in a uniform sample of `draws` items,
/// without replacement, from a population of `total` items of which `marked`
/// are marked (Hypergeometric(total, marked, draws)). Requires
/// marked <= total and draws <= total. After reducing by the
/// marked/unmarked and sampled/unsampled symmetries, <= 8 draws are made
/// one by one in exact integer arithmetic, a mean below 1 (draws * marked
/// < total) inverts one uniform by walking the pmf up from P(0), and the
/// rest run Stadlober's HRUA ratio-of-uniforms (1989), as numpy does, in
/// O(1) expected uniform pairs.
[[nodiscard]] std::uint64_t sample_hypergeometric(std::uint64_t total,
                                                  std::uint64_t marked,
                                                  std::uint64_t draws,
                                                  rng& gen);

/// Draws the per-category counts of a uniform sample of `draws` items,
/// without replacement, from a population with `counts[i]` items of category
/// i (multivariate hypergeometric), by sequential conditional univariate
/// hypergeometric draws, and writes them into `out[0..size)`. Allocation-
/// free over a raw census slice (the multibatch engine's pools and scratch
/// rows). Requires size > 0 and draws <= sum(counts).
void sample_multivariate_hypergeometric(const std::uint64_t* counts,
                                        std::size_t size, std::uint64_t draws,
                                        rng& gen, std::uint64_t* out);

/// Draws category counts from Multinomial(m, probs[0..size)) by sequential
/// conditional binomials and writes them into `out[0..size)` (probs must be
/// non-negative and sum to 1 up to rounding; the last category absorbs the
/// remainder). Allocation-free.
void sample_multinomial(std::uint64_t m, const double* probs,
                        std::size_t size, rng& gen, std::uint64_t* out);

/// The exact "birthday" law of the multibatch engine's aggregated rounds:
/// the number J of collision-free ordered agent pairs drawn, without
/// replacement, from a pool of n agents before the first pair that would
/// re-use an agent, P(J > j) = prod_{i<j} (n-2i)(n-2i-1) / (n(n-1)).
///
/// The log-survival curve is tabulated once per population size by the
/// incremental recurrence log S(j+1) = log S(j) + log(n-2j) + log(n-2j-1)
/// - log(n(n-1)) — O(sqrt(n)) entries, because the curve falls below the
/// finest level a 53-bit uniform can resolve after ~sqrt(19 n) pairs — so
/// each draw is one uniform plus a binary search with no lgamma calls
/// (previously ~2 lgammas per probe, the dominant per-round cost on dense
/// low-q games). The table depends only on n: a multibatch engine builds it
/// once and reuses it for every round of its trajectory.
class collision_run_sampler {
 public:
  explicit collision_run_sampler(std::uint64_t n);

  [[nodiscard]] std::uint64_t population_size() const { return n_; }

  /// Draws J by inversion: max{j : S(j) >= U} for one positive uniform U,
  /// clamped to >= 1 (S(1) = 1 exactly — the first pair of a round cannot
  /// collide — so the clamp only guards log-domain rounding).
  [[nodiscard]] std::uint64_t sample(rng& gen) const;

  /// Tabulated log P(J > j); exposed for the law tests.
  [[nodiscard]] const std::vector<double>& log_survival() const {
    return log_survival_;
  }

 private:
  std::uint64_t n_;
  std::vector<double> log_survival_;  ///< index j = 0..j_max
};

}  // namespace ppg
