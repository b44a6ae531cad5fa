#include "ppg/stats/distributions.hpp"

#include <array>
#include <cmath>
#include <numeric>

#include "ppg/util/error.hpp"

namespace ppg {

double log_gamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__) || defined(__FreeBSD__)
  int sign = 0;  // discarded: every caller here has Γ(x) > 0
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

namespace {

/// The truncated Stirling correction 1/(12k) - 1/(360k^3) of log k!.
double stirling_tail(double k) {
  return (1.0 / 12.0 - 1.0 / (360.0 * k * k)) / k;
}

}  // namespace

double log_factorial(std::uint64_t k) {
  static const auto table = [] {
    std::array<double, log_factorial_table_size> t{};
    long double sum = 0.0L;
    for (std::size_t i = 1; i < t.size(); ++i) {
      sum += std::log(static_cast<long double>(i));
      t[i] = static_cast<double>(sum);
    }
    return t;
  }();
  if (k < log_factorial_table_size) return table[k];
  const double kf = static_cast<double>(k);
  constexpr double half_log_two_pi = 0.91893853320467274178;
  return (kf + 0.5) * std::log(kf) - kf + half_log_two_pi + stirling_tail(kf);
}

double log_factorial_ratio(std::uint64_t a, std::uint64_t b) {
  if (a == b) return 0.0;
  if (a < log_factorial_table_size || b < log_factorial_table_size) {
    return log_factorial(a) - log_factorial(b);
  }
  // Stirling for both, regrouped around log(a/b) = log1p(d/b) so nothing of
  // the size of a log a cancels: log a! - log b! = d log b + (a + 1/2)
  // log1p(d/b) - d + tail(a) - tail(b), with d = a - b of either sign.
  const double af = static_cast<double>(a);
  const double bf = static_cast<double>(b);
  const double d = af - bf;
  return d * std::log(bf) + ((af + 0.5) * std::log1p(d / bf) - d) +
         (stirling_tail(af) - stirling_tail(bf));
}

double log_binomial_coefficient(std::uint64_t n, std::uint64_t k) {
  PPG_CHECK(k <= n, "binomial coefficient requires k <= n");
  return log_gamma(static_cast<double>(n) + 1.0) -
         log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double log_multinomial_coefficient(std::uint64_t m,
                                   const std::vector<std::uint64_t>& x) {
  std::uint64_t sum = 0;
  double log_coeff = log_gamma(static_cast<double>(m) + 1.0);
  for (const auto xi : x) {
    sum += xi;
    log_coeff -= log_gamma(static_cast<double>(xi) + 1.0);
  }
  PPG_CHECK(sum == m, "multinomial counts must sum to m");
  return log_coeff;
}

double binomial_pmf(std::uint64_t n, double p, std::uint64_t k) {
  PPG_CHECK(p >= 0.0 && p <= 1.0, "binomial_pmf requires p in [0, 1]");
  if (k > n) return 0.0;
  if (p == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  const double log_pmf = log_binomial_coefficient(n, k) +
                         static_cast<double>(k) * std::log(p) +
                         static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

double multinomial_pmf(std::uint64_t m, const std::vector<double>& probs,
                       const std::vector<std::uint64_t>& x) {
  PPG_CHECK(probs.size() == x.size(), "probs/counts size mismatch");
  double log_pmf = log_multinomial_coefficient(m, x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0) continue;
    if (probs[i] <= 0.0) return 0.0;
    log_pmf += static_cast<double>(x[i]) * std::log(probs[i]);
  }
  return std::exp(log_pmf);
}

std::vector<double> multinomial_mean(std::uint64_t m,
                                     const std::vector<double>& probs) {
  std::vector<double> mean(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    mean[i] = static_cast<double>(m) * probs[i];
  }
  return mean;
}

double hypergeometric_pmf(std::uint64_t total, std::uint64_t marked,
                          std::uint64_t draws, std::uint64_t x) {
  PPG_CHECK(marked <= total && draws <= total,
            "hypergeometric_pmf requires marked <= total, draws <= total");
  if (x > draws || x > marked) return 0.0;
  if (draws - x > total - marked) return 0.0;
  const double log_pmf = log_binomial_coefficient(marked, x) +
                         log_binomial_coefficient(total - marked, draws - x) -
                         log_binomial_coefficient(total, draws);
  return std::exp(log_pmf);
}

double multivariate_hypergeometric_pmf(
    const std::vector<std::uint64_t>& counts,
    const std::vector<std::uint64_t>& x) {
  PPG_CHECK(counts.size() == x.size(),
            "multivariate_hypergeometric_pmf: census/counts size mismatch");
  std::uint64_t total = 0;
  std::uint64_t draws = 0;
  double log_pmf = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (x[i] > counts[i]) return 0.0;
    total += counts[i];
    draws += x[i];
    log_pmf += log_binomial_coefficient(counts[i], x[i]);
  }
  log_pmf -= log_binomial_coefficient(total, draws);
  return std::exp(log_pmf);
}

std::vector<double> geometric_weights(std::size_t k, double lambda) {
  PPG_CHECK(k >= 1, "geometric_weights needs k >= 1");
  PPG_CHECK(lambda > 0.0, "geometric_weights needs lambda > 0");
  std::vector<double> weights(k);
  // Normalize against the largest power to avoid overflow for large k or
  // extreme lambda.
  double log_lambda = std::log(lambda);
  double max_log = std::max(0.0, static_cast<double>(k - 1) * log_lambda);
  double total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    weights[j] = std::exp(static_cast<double>(j) * log_lambda - max_log);
    total += weights[j];
  }
  for (auto& w : weights) {
    w /= total;
  }
  return weights;
}

}  // namespace ppg
