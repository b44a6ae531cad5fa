#include "ppg/stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "ppg/util/error.hpp"

namespace ppg {

void running_summary::add(double x) {
  max_ = count_ == 0 ? x : std::max(max_, x);
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double running_summary::mean() const {
  PPG_CHECK(count_ > 0, "mean of an empty summary");
  return mean_;
}

double running_summary::variance() const {
  PPG_CHECK(count_ > 1, "variance needs at least two observations");
  return m2_ / static_cast<double>(count_ - 1);
}

double running_summary::stddev() const {
  return std::sqrt(variance());
}

double running_summary::std_error() const {
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double running_summary::max() const {
  PPG_CHECK(count_ > 0, "max of an empty summary");
  return max_;
}

double running_summary::ci_half_width(double z) const {
  return z * std_error();
}

double lower_quantile(std::vector<double> samples, double q) {
  PPG_CHECK(!samples.empty(), "quantile of an empty sample set");
  PPG_CHECK(q >= 0.0 && q <= 1.0, "quantile level must be in [0, 1]");
  const auto n = static_cast<double>(samples.size());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * n)), 1, samples.size());
  const auto kth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), kth, samples.end());
  return *kth;
}

}  // namespace ppg
