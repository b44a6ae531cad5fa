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
/// The survival S(j) = P(J > j) is tabulated once per population size as
/// that running product, one division and one multiply an entry and no
/// transcendental call, until it falls below 2^-53, the smallest positive
/// uniform: O(sqrt(n)) entries (~sqrt(18.4 n)). A guide of ~1/4 as many
/// uint32 buckets, guide[b] = max{j : S(j) G >= b} over G buckets of
/// (0, 1), brackets the inversion max{j : S(j) >= U}, so a draw is one
/// uniform, one multiply and a search over [guide[b+1], guide[b]], b =
/// floor(U G): ~2 entries on average, the whole tail only for U < 1/G.
/// The tables depend only on n: a multibatch engine builds them once and
/// reuses them for every round of its trajectory. Requires 2 <= n <= 3e9,
/// so n(n-1) is exact in 64 bits; the cap is checked before anything is
/// allocated.
class collision_run_sampler {
 public:
  explicit collision_run_sampler(std::uint64_t n);

  [[nodiscard]] std::uint64_t population_size() const { return n_; }

  /// Draws J = invert(U) for one positive uniform U. J >= 1: S(1) = 1
  /// exactly, since the first pair of a round cannot collide.
  [[nodiscard]] std::uint64_t sample(rng& gen) const;

  /// max{j : S(j) >= u} over the table, for u in (0, 1).
  [[nodiscard]] std::uint64_t invert(double u) const;

  /// Tabulated P(J > j), index j = 0..j_max; exposed for the law tests.
  [[nodiscard]] const std::vector<double>& survival() const {
    return survival_;
  }

  /// The guide's bucket count G; exposed for the guide-edge tests.
  [[nodiscard]] std::size_t guide_buckets() const { return guide_.size() - 1; }

 private:
  std::uint64_t n_;
  std::vector<double> survival_;
  std::vector<std::uint32_t> guide_;  ///< index b = 0..G
  double buckets_ = 1.0;              ///< G as a double
};

}  // namespace ppg
