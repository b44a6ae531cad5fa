#include "ppg/stats/discrete_sampling.hpp"

#include <algorithm>
#include <cmath>

#include "ppg/stats/distributions.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

/// Binomial means n*min(p, 1-p) below this run inversion from 0, the rest
/// BTRS (whose hat needs a mean of at least 10). DESIGN.md §8 has the
/// per-call timings that place it.
constexpr double binomial_inversion_below = 14.0;

/// HRUA hats of variance below this decide acceptance by walking the pmf
/// ratio from the mode (`hypergeometric_walk_accepts`), the rest by
/// Stirling log-factorial ratios. DESIGN.md §8 has the per-call timings
/// that place it.
constexpr double hypergeometric_walk_variance_below = 256.0;

/// One log-factorial term log(a! / b!) anchored at b: a rejection
/// sampler's acceptance ratio compares candidates a near its mode-side
/// argument b, with log b computed once per draw instead of once per
/// candidate, and the hypergeometric inversion's P(0) is two such terms.
class log_factorial_anchor {
 public:
  explicit log_factorial_anchor(std::uint64_t b)
      : b_(b), log_b_(b == 0 ? 0.0 : std::log(static_cast<double>(b))) {}

  [[nodiscard]] double ratio(std::uint64_t a) const {
    return log_factorial_ratio(a, b_, log_b_);
  }

 private:
  std::uint64_t b_;
  double log_b_;
};

/// Inversion from 0: the smallest k with U < P(0) + ... + P(k), for one
/// uniform U, walking the pmf from p0 = P(0) by ratio(k) = P(k+1) / P(k).
/// Expected work O(mean + 1). A U that the computed terms leave uncovered
/// (their rounded sum fell short of 1, and the walk reached a zero term:
/// the end of the support or underflow) is redrawn, never clamped, so an
/// error common to every term cannot move mass to the last one.
template <typename Ratio>
std::uint64_t invert_from_zero(double p0, const Ratio& ratio, rng& gen) {
  while (true) {
    double u = gen.next_double();
    double pk = p0;
    for (std::uint64_t k = 0; pk > 0.0; ++k) {
      if (u < pk) return k;
      u -= pk;
      pk *= ratio(k);
    }
  }
}

/// Binomial(n, q) by inversion from 0: P(0) = (1 - q)^n and
/// P(k+1) / P(k) = (n - k) / (k + 1) * q / (1 - q). Requires q in (0, 1/2].
std::uint64_t binomial_inversion(std::uint64_t n, double q, rng& gen) {
  const double odds = q / (1.0 - q);
  const double p0 = std::exp(static_cast<double>(n) * std::log1p(-q));
  return invert_from_zero(
      p0,
      [n, odds](std::uint64_t k) {
        return static_cast<double>(n - k) / static_cast<double>(k + 1) * odds;
      },
      gen);
}

/// Binomial(n, p) by Hörmann's BTRS, transformed rejection with squeeze
/// (1993): O(1) expected uniform pairs for every n. Requires p <= 1/2 and
/// n p >= 10, the range where its hat is valid.
std::uint64_t binomial_btrs(std::uint64_t n, double p, rng& gen) {
  const double nf = static_cast<double>(n);
  const double spq = std::sqrt(nf * p * (1.0 - p));
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nf * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  // The tail test's constants, set up by the first candidate that needs
  // them: most draws end in the squeeze and never do.
  double alpha = 0.0;
  double log_odds = 0.0;
  std::uint64_t mode = 0;
  log_factorial_anchor at_mode(0);
  log_factorial_anchor at_rest(0);
  bool tail_ready = false;
  while (true) {
    const double u = gen.next_double() - 0.5;
    const double v = gen.next_double();
    const double us = 0.5 - std::fabs(u);
    const double kf = std::floor((2.0 * a / us + b) * u + c);
    if (kf < 0.0 || kf > nf) continue;
    const auto k = static_cast<std::uint64_t>(kf);
    if (us >= 0.07 && v <= v_r) return k;
    if (!tail_ready) {
      alpha = (2.83 + 5.1 / b) * spq;
      log_odds = std::log(p / (1.0 - p));
      mode = std::min(n, static_cast<std::uint64_t>((nf + 1.0) * p));
      at_mode = log_factorial_anchor(mode);
      at_rest = log_factorial_anchor(n - mode);
      tail_ready = true;
    }
    // log f(k) - log f(mode), as two mode-anchored factorial ratios.
    const double log_ratio = -(at_mode.ratio(k) + at_rest.ratio(n - k)) +
                             (kf - static_cast<double>(mode)) * log_odds;
    if (std::log(v * alpha / (a / (us * us) + b)) <= log_ratio) return k;
  }
}

/// Whether u2 <= pmf(k) / pmf(mode) for the hypergeometric pmf(x) ∝
/// 1 / (x! (marked - x)! (draws - x)! (rest + x)!), with the ratio walked
/// as a product of pmf(j + 1) / pmf(j) (above the mode) or pmf(j - 1) /
/// pmf(j) (below it). Every factor is <= 1 on the way out from the mode,
/// so the product only falls, and the walk rejects as soon as it is below
/// u2: O(|k - mode|) multiply-divides, no logarithm.
bool hypergeometric_walk_accepts(std::uint64_t marked, std::uint64_t draws,
                                 std::uint64_t rest, std::uint64_t mode,
                                 std::uint64_t k, double u2) {
  double ratio = 1.0;
  for (std::uint64_t j = mode; j < k; ++j) {
    ratio *= static_cast<double>(marked - j) * static_cast<double>(draws - j) /
             (static_cast<double>(j + 1) * static_cast<double>(rest + j + 1));
    if (ratio < u2) return false;
  }
  for (std::uint64_t j = mode; j > k; --j) {
    ratio *= static_cast<double>(j) * static_cast<double>(rest + j) /
             (static_cast<double>(marked - j + 1) *
              static_cast<double>(draws - j + 1));
    if (ratio < u2) return false;
  }
  return true;
}

/// Hypergeometric core: requires 2*marked <= total and 2*draws <= total
/// (callers reduce by symmetry first), so the support is [0, min(m, K)].
std::uint64_t hypergeometric_core(std::uint64_t total, std::uint64_t marked,
                                  std::uint64_t draws, rng& gen) {
  if (marked == 0 || draws == 0) return 0;
  if (draws <= 8) {
    // Sequential sampling without replacement, in exact integer arithmetic:
    // draw i is marked with probability (marked - x) / (total - i).
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < draws; ++i) {
      if (gen.next_below(total - i) < marked - x) ++x;
    }
    return x;
  }
  const std::uint64_t rest = total - marked - draws;
  if (static_cast<unsigned __int128>(draws) * marked < total) {
    // Mean below 1: inversion from 0. P(0) = (total - marked)! (total -
    // draws)! / (total! rest!) is two factorial ratios; taking both over
    // small = min(marked, draws) factors keeps their magnitude, and so
    // their rounding, at ~small * log(total). P(k+1) / P(k) = (marked - k)
    // (draws - k) / ((k + 1) (rest + k + 1)); its numerator is below total.
    const std::uint64_t small = std::min(marked, draws);
    const double p0 =
        std::exp(log_factorial_anchor(rest).ratio(rest + small) -
                 log_factorial_anchor(total - small).ratio(total));
    return invert_from_zero(
        p0,
        [marked, draws, rest](std::uint64_t k) {
          return static_cast<double>((marked - k) * (draws - k)) /
                 (static_cast<double>(k + 1) *
                  static_cast<double>(rest + k + 1));
        },
        gen);
  }
  // Stadlober's HRUA ratio-of-uniforms (1989), as numpy runs it: O(1)
  // expected uniform pairs. The hat is a table mountain of width h around
  // mean + 1/2, bounded by the support [0, min(draws, marked)].
  constexpr double d1 = 1.7155277699214135;  // 2 sqrt(2/e)
  constexpr double d2 = 0.8989161620588988;  // 3 - 2 sqrt(3/e)
  const double nf = static_cast<double>(total);
  const double mf = static_cast<double>(draws);
  const double p = static_cast<double>(marked) / nf;
  const double variance = (nf - mf) * mf * p * (1.0 - p) / (nf - 1.0);
  const double a = mf * p + 0.5;
  const double h = d1 * std::sqrt(variance + 0.5) + d2;
  const double support_end = static_cast<double>(std::min(draws, marked) + 1);
  const auto mode = static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(draws + 1) * (marked + 1) /
      (static_cast<unsigned __int128>(total) + 2));
  // Accept k when u^2 <= pmf(k) / pmf(mode). A narrow hat walks that
  // ratio out from the mode; a wide one takes it as four log-factorial
  // ratios. The candidate loop is written out for each: one loop shared
  // through a generic lambda timed the wide-hat path ~15% slower a call.
  if (variance < hypergeometric_walk_variance_below) {
    while (true) {
      const double u = gen.next_double();
      const double v = gen.next_double();
      if (u == 0.0) continue;
      const double x = a + h * (v - 0.5) / u;
      if (x < 0.0 || x >= support_end) continue;
      const auto k = static_cast<std::uint64_t>(x);
      if (hypergeometric_walk_accepts(marked, draws, rest, mode, k, u * u)) {
        return k;
      }
    }
  }
  // pmf(x) is proportional to 1 / (x! (marked - x)! (draws - x)!
  // (rest + x)!), rest >= 0; each factor is compared with its value at the
  // mode.
  const log_factorial_anchor at_x(mode);
  const log_factorial_anchor at_marked(marked - mode);
  const log_factorial_anchor at_draws(draws - mode);
  const log_factorial_anchor at_rest(rest + mode);
  while (true) {
    const double u = gen.next_double();
    const double v = gen.next_double();
    if (u == 0.0) continue;
    const double x = a + h * (v - 0.5) / u;
    if (x < 0.0 || x >= support_end) continue;
    const auto k = static_cast<std::uint64_t>(x);
    // log pmf(k) - log pmf(mode).
    const double t = -(at_x.ratio(k) + at_marked.ratio(marked - k) +
                       at_draws.ratio(draws - k) + at_rest.ratio(rest + k));
    // Squeezes on (0, 1]: u - 1/u <= 2 log u <= u (4 - u) - 3.
    if (u * (4.0 - u) - 3.0 <= t) return k;
    if (u * (u - t) >= 1.0) continue;
    if (2.0 * std::log(u) <= t) return k;
  }
}

}  // namespace

std::uint64_t sample_binomial(std::uint64_t n, double p, rng& gen) {
  PPG_CHECK(p >= 0.0 && p <= 1.0, "sample_binomial requires p in [0, 1]");
  if (p == 0.0 || n == 0) return 0;
  if (p == 1.0) return n;
  // Work with q = min(p, 1-p): inversion walks O(n*q) terms after one
  // uniform, BTRS takes O(1) uniform pairs but needs n*q >= 10.
  const bool flipped = p > 0.5;
  const double q = flipped ? 1.0 - p : p;
  const std::uint64_t successes =
      static_cast<double>(n) * q < binomial_inversion_below
          ? binomial_inversion(n, q, gen)
          : binomial_btrs(n, q, gen);
  return flipped ? n - successes : successes;
}

std::uint64_t sample_hypergeometric(std::uint64_t total, std::uint64_t marked,
                                    std::uint64_t draws, rng& gen) {
  PPG_CHECK(marked <= total && draws <= total,
            "sample_hypergeometric requires marked <= total, draws <= total");
  if (total == 0) return 0;
  // Reduce to the small-marked, small-draws quadrant: flipping which class
  // is "marked" maps X to draws - X, and sampling the complement of the
  // drawn set maps X to marked - X.
  std::uint64_t marked2 = marked;
  std::uint64_t draws2 = draws;
  const bool flip_marked = marked2 > total - marked2;
  if (flip_marked) marked2 = total - marked2;
  const bool flip_draws = draws2 > total - draws2;
  if (flip_draws) draws2 = total - draws2;
  std::uint64_t x = hypergeometric_core(total, marked2, draws2, gen);
  if (flip_draws) x = marked2 - x;
  if (flip_marked) x = draws - x;
  return x;
}

void sample_multivariate_hypergeometric(const std::uint64_t* counts,
                                        std::size_t size, std::uint64_t draws,
                                        rng& gen, std::uint64_t* out) {
  PPG_CHECK(size > 0,
            "sample_multivariate_hypergeometric needs a non-empty census");
  std::uint64_t remaining_population = 0;
  for (std::size_t i = 0; i < size; ++i) remaining_population += counts[i];
  PPG_CHECK(draws <= remaining_population,
            "sample_multivariate_hypergeometric: more draws than items");
  for (std::size_t i = 0; i < size; ++i) out[i] = 0;
  std::uint64_t remaining_draws = draws;
  for (std::size_t i = 0; i + 1 < size && remaining_draws > 0; ++i) {
    const std::uint64_t x = sample_hypergeometric(
        remaining_population, counts[i], remaining_draws, gen);
    out[i] = x;
    remaining_draws -= x;
    remaining_population -= counts[i];
  }
  out[size - 1] += remaining_draws;
}

void sample_multinomial(std::uint64_t m, const double* probs,
                        std::size_t size, rng& gen, std::uint64_t* out) {
  PPG_CHECK(size > 0, "sample_multinomial needs a non-empty support");
  for (std::size_t i = 0; i < size; ++i) out[i] = 0;
  double remaining_prob = 1.0;
  std::uint64_t remaining = m;
  for (std::size_t i = 0; i + 1 < size && remaining > 0; ++i) {
    const double conditional =
        remaining_prob <= 0.0 ? 0.0 : probs[i] / remaining_prob;
    const std::uint64_t draw =
        sample_binomial(remaining, std::min(1.0, std::max(0.0, conditional)),
                        gen);
    out[i] = draw;
    remaining -= draw;
    remaining_prob -= probs[i];
  }
  out[size - 1] += remaining;
}

collision_run_sampler::collision_run_sampler(std::uint64_t n) : n_(n) {
  PPG_CHECK(n >= 2, "the birthday law needs at least two agents");
  PPG_CHECK(n <= 3'000'000'000ull, "the birthday law caps n at 3e9");
  // Tabulate until the survival falls below every level a positive
  // next_double() can produce (2^-53): inversion never selects such an
  // entry, and the first one bounds every search. S(j) ~ exp(-2 j^2 / n),
  // so that takes ~sqrt(18.4 n) entries.
  constexpr double cutoff = 0x1.0p-53;
  const std::uint64_t support_max = n / 2;
  const std::uint64_t pairs = n * (n - 1);
  const double pairs_d = static_cast<double>(pairs);
  survival_.reserve(static_cast<std::size_t>(std::min<double>(
      static_cast<double>(support_max) + 1.0,
      std::sqrt(18.5 * static_cast<double>(n)) + 16.0)));
  survival_.push_back(1.0);
  double s = 1.0;
  for (std::uint64_t j = 0; j < support_max; ++j) {
    // Each factor as 1 - lost / pairs, lost = n(n-1) - fresh(fresh-1) <
    // 4jn exact in a double, so the factor rounds about once. Rounding
    // fresh(fresh-1) to a double instead left the table 1.3e-11 off at
    // n = 3e9 (2.4e-14 this way).
    const std::uint64_t fresh = n - 2 * j;
    const std::uint64_t lost = pairs - fresh * (fresh - 1);
    s *= 1.0 - static_cast<double>(lost) / pairs_d;
    survival_.push_back(s);
    if (s < cutoff) break;
  }
  // guide[b] = max{j : S(j) G >= b}, with S(j) G rounded exactly as
  // invert() rounds u G: both sides of the bracket then hold by the
  // monotonicity of rounding, whatever u falls near a bucket edge.
  const std::size_t buckets = std::max<std::size_t>(1, survival_.size() / 4);
  buckets_ = static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  std::size_t last = survival_.size() - 1;
  for (std::size_t b = 0; b <= buckets; ++b) {
    while (survival_[last] * buckets_ < static_cast<double>(b)) --last;
    guide_[b] = static_cast<std::uint32_t>(last);
  }
}

std::uint64_t collision_run_sampler::invert(double u) const {
  // With b = floor(u G): S(j) G >= b + 1 implies S(j) > u, and S(j) >= u
  // implies S(j) G >= b, so the answer lies in [guide[b+1], guide[b]].
  // u < 1 keeps b + 1 <= G.
  PPG_DCHECK(u < 1.0, "the birthday inversion needs u < 1");
  const auto b = static_cast<std::size_t>(u * buckets_);
  std::size_t lo = guide_[b + 1];
  std::size_t hi = guide_[b];
  while (lo < hi) {
    const std::size_t mid = hi - (hi - lo) / 2;
    if (survival_[mid] >= u) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::uint64_t collision_run_sampler::sample(rng& gen) const {
  double u = gen.next_double();
  while (u <= 0.0) u = gen.next_double();
  return invert(u);
}

}  // namespace ppg
