#include "ppg/exp/aggregator.hpp"

#include "ppg/util/error.hpp"

namespace ppg {

void census_aggregator::add(const std::vector<double>& census) {
  PPG_CHECK(!census.empty(), "aggregating an empty census");
  if (coords_.empty()) {
    coords_.resize(census.size());
  }
  PPG_CHECK(census.size() == coords_.size(),
            "census dimension changed between replicas");
  for (std::size_t j = 0; j < coords_.size(); ++j) {
    coords_[j].add(census[j]);
  }
}

std::size_t census_aggregator::count() const {
  return coords_.empty() ? 0 : coords_.front().count();
}

std::vector<double> census_aggregator::mean() const {
  PPG_CHECK(count() > 0, "mean of an empty census aggregate");
  std::vector<double> result(coords_.size());
  for (std::size_t j = 0; j < coords_.size(); ++j) {
    result[j] = coords_[j].mean();
  }
  return result;
}

std::vector<double> census_aggregator::ci_half_width(double z) const {
  PPG_CHECK(count() > 1, "confidence interval needs at least two replicas");
  std::vector<double> result(coords_.size());
  for (std::size_t j = 0; j < coords_.size(); ++j) {
    result[j] = coords_[j].ci_half_width(z);
  }
  return result;
}

}  // namespace ppg
