#include "ppg/stats/discrete_sampling.hpp"

#include <algorithm>
#include <cmath>

#include "ppg/stats/distributions.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

/// Inverts a unimodal PMF outward from its mode: accumulates probability at
/// the mode, then alternately one cell up and one cell down, until the
/// uniform draw is covered. `ratio_up(k)` is pmf(k+1)/pmf(k) and
/// `ratio_down(k)` is pmf(k-1)/pmf(k); expected work is O(standard
/// deviation) because the mass within a few sigma of the mode is covered
/// first. `lo_min`/`hi_max` bound the support.
template <typename RatioUp, typename RatioDown>
std::uint64_t invert_from_mode(std::uint64_t mode, double mode_pmf,
                               std::uint64_t lo_min, std::uint64_t hi_max,
                               RatioUp ratio_up, RatioDown ratio_down,
                               rng& gen) {
  const double u = gen.next_double();
  double acc = mode_pmf;
  if (u < acc) return mode;
  std::uint64_t lo = mode;
  std::uint64_t hi = mode;
  double pmf_lo = mode_pmf;
  double pmf_hi = mode_pmf;
  while (lo > lo_min || hi < hi_max) {
    if (hi < hi_max) {
      pmf_hi *= ratio_up(hi);
      ++hi;
      acc += pmf_hi;
      if (u < acc) return hi;
    }
    if (lo > lo_min) {
      pmf_lo *= ratio_down(lo);
      --lo;
      acc += pmf_lo;
      if (u < acc) return lo;
    }
  }
  // Floating-point shortfall: the support sums to 1 up to rounding, so u
  // landed in the ~1e-15 residual; attribute it to the mode.
  return mode;
}

/// Binomial(n, p) by counting successes through geometric skips between
/// them; exact, with expected work O(n*p + 1). Requires p in (0, 1).
std::uint64_t binomial_by_skips(std::uint64_t n, double p, rng& gen) {
  std::uint64_t successes = 0;
  std::uint64_t position = 0;
  while (true) {
    position += gen.next_geometric(p) + 1;
    if (position > n) break;
    ++successes;
  }
  return successes;
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
  const double nf = static_cast<double>(total);
  const double kf = static_cast<double>(marked);
  const double mf = static_cast<double>(draws);
  // Any start index with a correctly computed pmf keeps the inversion
  // exact, so computing the mode in doubles is safe against overflow.
  const std::uint64_t hi = std::min(draws, marked);
  const double approx_mode = (mf + 1.0) * (kf + 1.0) / (nf + 2.0);
  const std::uint64_t mode =
      std::min(hi, static_cast<std::uint64_t>(approx_mode));
  const double log_mode_pmf =
      log_binomial_coefficient(marked, mode) +
      log_binomial_coefficient(total - marked, draws - mode) -
      log_binomial_coefficient(total, draws);
  const auto ratio_up = [&](std::uint64_t x) {
    const double xf = static_cast<double>(x);
    return (kf - xf) * (mf - xf) / ((xf + 1.0) * (nf - kf - mf + xf + 1.0));
  };
  const auto ratio_down = [&](std::uint64_t x) {
    const double xf = static_cast<double>(x);
    return xf * (nf - kf - mf + xf) / ((kf - xf + 1.0) * (mf - xf + 1.0));
  };
  return invert_from_mode(mode, std::exp(log_mode_pmf), 0, hi, ratio_up,
                          ratio_down, gen);
}

}  // namespace

std::uint64_t sample_binomial(std::uint64_t n, double p, rng& gen) {
  PPG_CHECK(p >= 0.0 && p <= 1.0, "sample_binomial requires p in [0, 1]");
  if (p == 0.0 || n == 0) return 0;
  if (p == 1.0) return n;
  // Work with q = min(p, 1-p): the skip path costs O(n*q), the
  // mode-inversion path O(sqrt(n*q)) plus a few lgammas — cross over once
  // the expected count outgrows the fixed cost.
  const bool flipped = p > 0.5;
  const double q = flipped ? 1.0 - p : p;
  const double expected = static_cast<double>(n) * q;
  std::uint64_t successes;
  if (expected <= 32.0) {
    successes = binomial_by_skips(n, q, gen);
  } else {
    const double nf = static_cast<double>(n);
    const std::uint64_t mode =
        std::min(n, static_cast<std::uint64_t>((nf + 1.0) * q));
    const double log_mode_pmf =
        log_binomial_coefficient(n, mode) +
        static_cast<double>(mode) * std::log(q) +
        static_cast<double>(n - mode) * std::log1p(-q);
    const double odds = q / (1.0 - q);
    const auto ratio_up = [&](std::uint64_t k) {
      const double kf = static_cast<double>(k);
      return (nf - kf) / (kf + 1.0) * odds;
    };
    const auto ratio_down = [&](std::uint64_t k) {
      const double kf = static_cast<double>(k);
      return kf / (nf - kf + 1.0) / odds;
    };
    successes = invert_from_mode(mode, std::exp(log_mode_pmf), 0, n,
                                 ratio_up, ratio_down, gen);
  }
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

std::vector<std::uint64_t> sample_multinomial(std::uint64_t m,
                                              const std::vector<double>& probs,
                                              rng& gen) {
  std::vector<std::uint64_t> counts(probs.size(), 0);
  sample_multinomial(m, probs.data(), probs.size(), gen, counts.data());
  return counts;
}

collision_run_sampler::collision_run_sampler(std::uint64_t n) : n_(n) {
  PPG_CHECK(n >= 2, "the birthday law needs at least two agents");
  // Tabulate until the survival falls below every level a positive
  // next_double() can produce: the smallest positive 53-bit uniform is
  // 2^-53, log = -36.74, so entries below -38 are unreachable by inversion.
  constexpr double log_cutoff = -38.0;
  const double log_pairs = std::log(static_cast<double>(n)) +
                           std::log(static_cast<double>(n - 1));
  const std::uint64_t support_max = n / 2;
  log_survival_.reserve(static_cast<std::size_t>(std::min<double>(
      static_cast<double>(support_max) + 1.0,
      std::sqrt(19.5 * static_cast<double>(n)) + 16.0)));
  double ls = 0.0;
  log_survival_.push_back(ls);
  for (std::uint64_t j = 0; j < support_max; ++j) {
    ls += std::log(static_cast<double>(n - 2 * j)) +
          std::log(static_cast<double>(n - 2 * j - 1)) - log_pairs;
    log_survival_.push_back(ls);
    if (ls < log_cutoff) break;
  }
}

std::uint64_t collision_run_sampler::sample(rng& gen) const {
  double u = gen.next_double();
  while (u <= 0.0) u = gen.next_double();
  const double log_u = std::log(u);
  // Largest tabulated j with log S(j) >= log u. Entry 0 is log 1 = 0 >
  // log u, and the table's tail is either below every reachable log u or
  // the end of the support (the pool holds at most n/2 disjoint pairs).
  std::size_t lo = 0;
  std::size_t hi = log_survival_.size() - 1;
  if (log_survival_[hi] >= log_u) {
    return std::max<std::uint64_t>(hi, 1);
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (log_survival_[mid] >= log_u) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::max<std::uint64_t>(lo, 1);
}

}  // namespace ppg
