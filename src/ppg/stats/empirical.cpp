#include "ppg/stats/empirical.hpp"

#include <cmath>

#include "ppg/util/error.hpp"

namespace ppg {

double total_variation(const std::vector<double>& p,
                       const std::vector<double>& q) {
  PPG_CHECK(p.size() == q.size(), "TV distance needs equal supports");
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    sum += std::abs(p[i] - q[i]);
  }
  return 0.5 * sum;
}

bool is_distribution(const std::vector<double>& p, double tol) {
  double sum = 0.0;
  for (const double x : p) {
    if (x < -tol) return false;
    sum += x;
  }
  return std::abs(sum - 1.0) <= tol;
}

double distribution_mean(const std::vector<double>& p,
                         const std::vector<double>& values) {
  PPG_CHECK(p.size() == values.size(), "mean needs matching supports");
  double mean = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    mean += p[i] * values[i];
  }
  return mean;
}

double distribution_variance(const std::vector<double>& p,
                             const std::vector<double>& values) {
  const double mean = distribution_mean(p, values);
  double second = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    second += p[i] * values[i] * values[i];
  }
  return second - mean * mean;
}

}  // namespace ppg
