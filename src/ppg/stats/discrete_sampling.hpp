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
// textbook rejection samplers BTRS (binomial) and HRUA (hypergeometric).
// Their acceptance tests walk the pmf ratio from the mode while the hat is
// narrow, and otherwise take one log a draw and one log1p per Stirling
// term a candidate, never lgamma. See DESIGN.md §8 for each branch's law
// error and per-call cost.
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/util/rng.hpp"

namespace ppg {

/// Draws from Binomial(n, p). Exact for every n: with q = min(p, 1-p) (a
/// p > 1/2 draw is flipped) and n*q < 14 it inverts one uniform by walking
/// the pmf up from (1-q)^n, O(n*q + 1) multiplies; from n*q = 14 on it runs
/// Hörmann's BTRS, transformed rejection with squeeze (1993), in O(1)
/// expected uniform pairs. Requires p in [0, 1] (checked).
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

/// Writes into chain[0..size) the conditional success probabilities that
/// sample_multinomial computes on every call: chain[i] = probs[i] / (1 -
/// probs[0] - ... - probs[i-1]), with the remaining mass subtracted in
/// order, 0 once it is <= 0, and clamped to [0, 1]; chain[size - 1] = 1.
/// A law drawn many times compiles its chain once.
void multinomial_chain(const double* probs, std::size_t size, double* chain);

/// sample_multinomial(m, probs, size, gen, out) from probs' compiled
/// multinomial_chain: bit-identical draws, with no division, clamp or
/// range check per call. Requires size > 0 and a chain from
/// multinomial_chain.
void sample_multinomial_chain(std::uint64_t m, const double* chain,
                              std::size_t size, rng& gen, std::uint64_t* out);

/// The rejection samplers' folded acceptance arithmetic, exposed for the
/// arithmetic tests. Each ratio log(a!/b!) of a candidate-side argument a
/// over its mode-side anchor b >= 126 is, by Stirling's series,
/// d log b + (a + 1/2) log1p(d/b) - d + tail(a) - tail(b) with d = a - b.
/// Across the terms of one pmf the d's cancel and the d log b's sum to
/// (k - mode) times the log of one ratio of anchors, so a draw takes one
/// log and each candidate one log1p and one division per term. A
/// candidate with an argument below 126, log_factorial's table, takes
/// log_factorial_ratio per term instead.
///
/// log pmf(k) - log pmf(mode) of Hypergeometric: pmf(x) is proportional to
/// 1 / (x! (marked - x)! (draws - x)! (rest + x)!). Requires mode <= marked,
/// mode <= draws, and candidates k <= min(marked, draws).
class hypergeometric_log_ratio {
 public:
  hypergeometric_log_ratio(std::uint64_t marked, std::uint64_t draws,
                           std::uint64_t rest, std::uint64_t mode);
  [[nodiscard]] double operator()(std::uint64_t k) const;

 private:
  std::uint64_t marked_, draws_, rest_, mode_;
  bool anchors_tabulated_;  ///< an anchor below 126: every k is generic
  double mode_f_;
  /// log(mode (rest + mode) / ((marked - mode) (draws - mode))).
  double log_anchors_;
  /// 1 / anchor: mode, marked - mode, draws - mode, rest + mode.
  double inv_[4];
  double anchor_tails_;  ///< the sum of the anchors' Stirling tails
};

/// log f(k) - log f(mode) of Binomial(n, p): f(x) is proportional to
/// (p/(1-p))^x / (x! (n - x)!). Requires 0 < p < 1, mode <= n and k <= n.
class binomial_log_ratio {
 public:
  binomial_log_ratio(std::uint64_t n, double p, std::uint64_t mode);
  [[nodiscard]] double operator()(std::uint64_t k) const;

 private:
  std::uint64_t n_, mode_;
  double p_;
  bool anchors_tabulated_;  ///< an anchor below 126: every k is generic
  double mode_f_;
  double log_anchors_;   ///< log((n - mode) p / (mode (1 - p)))
  double inv_[2];        ///< 1 / anchor: mode, n - mode
  double anchor_tails_;  ///< the sum of the anchors' Stirling tails
};

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
