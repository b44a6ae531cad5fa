#include "ppg/stats/discrete_sampling.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "ppg/stats/distributions.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

/// Binomial means n*min(p, 1-p) below this run inversion from 0, the rest
/// BTRS (whose hat needs a mean of at least 10). DESIGN.md §8 has the
/// per-call timings that place it.
constexpr double binomial_inversion_below = 14.0;

/// HRUA hats of variance below this decide acceptance by walking the pmf
/// ratio from the mode (`hypergeometric_walk_accepts`), the rest by the
/// folded Stirling ratio (`hypergeometric_log_ratio`). DESIGN.md §8 has
/// the per-call timings that place it.
constexpr double hypergeometric_walk_variance_below = 144.0;

/// The same cutover for BTRS's tail test: below it `binomial_walk_accepts`,
/// from it on `binomial_log_ratio`. DESIGN.md §8 has the per-call timings
/// that place it.
constexpr double binomial_walk_variance_below = 160.0;

/// Stirling's correction 1/(12a) - 1/(360a^3) of log a!, from r = 1/a.
double stirling_tail(double r) {
  return (1.0 / 12.0 - r * r * (1.0 / 360.0)) * r;
}

/// One folded Stirling term: log(a!/b!) - d log b + d - tail(b), d = a - b,
/// given d and 1/b. Requires a, b >= log_factorial_table_size.
double folded_term(double a, double d, double inv_b) {
  return (a + 0.5) * std::log1p(d * inv_b) + stirling_tail(1.0 / a);
}

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

/// Whether bound <= f(k) / f(mode) for the binomial f(x) ∝ odds^x /
/// (x! (n - x)!), with the ratio walked as a product of f(j + 1) / f(j) =
/// (n - j) / (j + 1) * odds (above the mode) or f(j - 1) / f(j) = j /
/// ((n - j + 1) * odds) (below it). Every factor is <= 1 on the way out
/// from the mode, so the walk rejects as soon as the product is below
/// bound: O(|k - mode|) multiply-divides, no logarithm.
bool binomial_walk_accepts(std::uint64_t n, double odds, std::uint64_t mode,
                           std::uint64_t k, double bound) {
  double ratio = 1.0;
  for (std::uint64_t j = mode; j < k; ++j) {
    ratio *= static_cast<double>(n - j) * odds / static_cast<double>(j + 1);
    if (ratio < bound) return false;
  }
  for (std::uint64_t j = mode; j > k; --j) {
    ratio *= static_cast<double>(j) / (static_cast<double>(n - j + 1) * odds);
    if (ratio < bound) return false;
  }
  return bound <= ratio;
}

/// Binomial(n, p) by Hörmann's BTRS, transformed rejection with squeeze
/// (1993): O(1) expected uniform pairs for every n. Requires p <= 1/2 and
/// n p >= 10, the range where its hat is valid.
std::uint64_t binomial_btrs(std::uint64_t n, double p, rng& gen) {
  const double nf = static_cast<double>(n);
  const double variance = nf * p * (1.0 - p);
  const double spq = std::sqrt(variance);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nf * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  // The tail test accepts k when v alpha / (a/us^2 + b) <= f(k) / f(mode):
  // a narrow hat walks that ratio out from the mode, a wide one compares
  // logs. Its constants are set up by the first candidate that needs them:
  // most draws end in the squeeze and never do.
  const bool walk = variance < binomial_walk_variance_below;
  double alpha = 0.0;
  double odds = 0.0;
  std::uint64_t mode = 0;
  std::optional<binomial_log_ratio> log_ratio;
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
      mode = std::min(n, static_cast<std::uint64_t>((nf + 1.0) * p));
      if (walk) {
        odds = p / (1.0 - p);
      } else {
        log_ratio.emplace(n, p, mode);
      }
      tail_ready = true;
    }
    const double bound = v * alpha / (a / (us * us) + b);
    if (walk ? binomial_walk_accepts(n, odds, mode, k, bound)
             : std::log(bound) <= (*log_ratio)(k)) {
      return k;
    }
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
    const double p0 = std::exp(log_factorial_ratio(rest + small, rest) -
                               log_factorial_ratio(total, total - small));
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
  // ratio out from the mode; a wide one takes its log, folded. The
  // candidate loop is written out for each: one loop shared through a
  // generic lambda timed the wide-hat path ~15% slower a call.
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
  const hypergeometric_log_ratio log_ratio(marked, draws, rest, mode);
  while (true) {
    const double u = gen.next_double();
    const double v = gen.next_double();
    if (u == 0.0) continue;
    const double x = a + h * (v - 0.5) / u;
    if (x < 0.0 || x >= support_end) continue;
    const auto k = static_cast<std::uint64_t>(x);
    const double t = log_ratio(k);
    // Squeezes on (0, 1]: u - 1/u <= 2 log u <= u (4 - u) - 3.
    if (u * (4.0 - u) - 3.0 <= t) return k;
    if (u * (u - t) >= 1.0) continue;
    if (2.0 * std::log(u) <= t) return k;
  }
}

/// The binomial draw behind sample_binomial, for p already in [0, 1].
std::uint64_t binomial(std::uint64_t n, double p, rng& gen) {
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

/// One link of a multinomial's conditional chain: the success probability
/// of category i given the mass `remaining_prob` left before it, which it
/// then takes off.
double chain_link(double prob, double& remaining_prob) {
  const double conditional =
      remaining_prob <= 0.0 ? 0.0 : prob / remaining_prob;
  remaining_prob -= prob;
  return std::min(1.0, std::max(0.0, conditional));
}

}  // namespace

hypergeometric_log_ratio::hypergeometric_log_ratio(std::uint64_t marked,
                                                   std::uint64_t draws,
                                                   std::uint64_t rest,
                                                   std::uint64_t mode)
    : marked_(marked),
      draws_(draws),
      rest_(rest),
      mode_(mode),
      anchors_tabulated_(std::min({mode, marked - mode, draws - mode}) <
                         log_factorial_table_size),
      mode_f_(static_cast<double>(mode)),
      log_anchors_(0.0),
      inv_{},
      anchor_tails_(0.0) {
  if (anchors_tabulated_) return;
  // The anchors of log(k!/mode!), log((marked-k)!/(marked-mode)!),
  // log((draws-k)!/(draws-mode)!) and log((rest+k)!/(rest+mode)!): the
  // d log b parts are D log mode - D log(marked-mode) - D log(draws-mode)
  // + D log(rest+mode), D = k - mode, and the -d parts cancel.
  const double anchors[4] = {mode_f_, static_cast<double>(marked - mode),
                             static_cast<double>(draws - mode),
                             static_cast<double>(rest + mode)};
  log_anchors_ = std::log(anchors[0] * anchors[3] / (anchors[1] * anchors[2]));
  for (int i = 0; i < 4; ++i) {
    inv_[i] = 1.0 / anchors[i];
    anchor_tails_ += stirling_tail(inv_[i]);
  }
}

double hypergeometric_log_ratio::operator()(std::uint64_t k) const {
  // rest + k >= k, so three arguments decide whether the fold applies.
  if (anchors_tabulated_ ||
      std::min({k, marked_ - k, draws_ - k}) < log_factorial_table_size) {
    return -(log_factorial_ratio(k, mode_) +
             log_factorial_ratio(marked_ - k, marked_ - mode_) +
             log_factorial_ratio(draws_ - k, draws_ - mode_) +
             log_factorial_ratio(rest_ + k, rest_ + mode_));
  }
  const double kf = static_cast<double>(k);
  const double d = kf - mode_f_;
  return -(d * log_anchors_ + folded_term(kf, d, inv_[0]) +
           folded_term(static_cast<double>(marked_ - k), -d, inv_[1]) +
           folded_term(static_cast<double>(draws_ - k), -d, inv_[2]) +
           folded_term(static_cast<double>(rest_ + k), d, inv_[3]) -
           anchor_tails_);
}

binomial_log_ratio::binomial_log_ratio(std::uint64_t n, double p,
                                       std::uint64_t mode)
    : n_(n),
      mode_(mode),
      p_(p),
      anchors_tabulated_(std::min(mode, n - mode) < log_factorial_table_size),
      mode_f_(static_cast<double>(mode)),
      log_anchors_(0.0),
      inv_{},
      anchor_tails_(0.0) {
  if (anchors_tabulated_) return;
  // log f(k)/f(mode) = D log(p/(1-p)) - log(k!/mode!) - log((n-k)!/(n-mode)!),
  // D = k - mode: the d log b parts and the odds fold into D log((n-mode)
  // p / (mode (1-p))), and the -d parts cancel.
  const double anchors[2] = {mode_f_, static_cast<double>(n - mode)};
  log_anchors_ = std::log(anchors[1] * p / (anchors[0] * (1.0 - p)));
  for (int i = 0; i < 2; ++i) {
    inv_[i] = 1.0 / anchors[i];
    anchor_tails_ += stirling_tail(inv_[i]);
  }
}

double binomial_log_ratio::operator()(std::uint64_t k) const {
  const double kf = static_cast<double>(k);
  const double d = kf - mode_f_;
  if (anchors_tabulated_ ||
      std::min(k, n_ - k) < log_factorial_table_size) {
    return d * std::log(p_ / (1.0 - p_)) -
           (log_factorial_ratio(k, mode_) +
            log_factorial_ratio(n_ - k, n_ - mode_));
  }
  return d * log_anchors_ -
         (folded_term(kf, d, inv_[0]) +
          folded_term(static_cast<double>(n_ - k), -d, inv_[1]) -
          anchor_tails_);
}

std::uint64_t sample_binomial(std::uint64_t n, double p, rng& gen) {
  PPG_CHECK(p >= 0.0 && p <= 1.0, "sample_binomial requires p in [0, 1]");
  return binomial(n, p, gen);
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
    const std::uint64_t draw =
        binomial(remaining, chain_link(probs[i], remaining_prob), gen);
    out[i] = draw;
    remaining -= draw;
  }
  out[size - 1] += remaining;
}

void multinomial_chain(const double* probs, std::size_t size, double* chain) {
  double remaining_prob = 1.0;
  for (std::size_t i = 0; i + 1 < size; ++i) {
    chain[i] = chain_link(probs[i], remaining_prob);
  }
  if (size > 0) chain[size - 1] = 1.0;
}

void sample_multinomial_chain(std::uint64_t m, const double* chain,
                              std::size_t size, rng& gen,
                              std::uint64_t* out) {
  for (std::size_t i = 0; i < size; ++i) out[i] = 0;
  std::uint64_t remaining = m;
  for (std::size_t i = 0; i + 1 < size && remaining > 0; ++i) {
    const std::uint64_t draw = binomial(remaining, chain[i], gen);
    out[i] = draw;
    remaining -= draw;
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
