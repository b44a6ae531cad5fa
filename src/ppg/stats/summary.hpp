// Streaming summary statistics (Welford), simple confidence intervals and
// an exact sample quantile.
#pragma once

#include <cstddef>
#include <vector>

namespace ppg {

/// Online mean/variance accumulator using Welford's algorithm; numerically
/// stable for long simulation streams.
class running_summary {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance; requires at least two observations.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Standard error of the mean.
  [[nodiscard]] double std_error() const;
  [[nodiscard]] double max() const;

  /// Half-width of a normal-approximation confidence interval at the given
  /// z-score (default 1.96 ~ 95%).
  [[nodiscard]] double ci_half_width(double z = 1.96) const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double max_ = 0.0;
};

/// The q-quantile of `samples`, q in [0, 1], by the inverse-CDF (lower)
/// convention: the smallest sample s with F(s) >= q, where F is the
/// empirical CDF. Requires at least one sample; reorders its copy only.
[[nodiscard]] double lower_quantile(std::vector<double> samples, double q);

}  // namespace ppg
