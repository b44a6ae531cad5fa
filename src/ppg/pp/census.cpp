#include "ppg/pp/census.hpp"

#include "ppg/util/error.hpp"

namespace ppg {

census_view::census_view(const std::vector<std::uint64_t>& counts,
                         std::uint64_t population_size)
    : counts_(&counts), n_(population_size) {
  PPG_CHECK(!counts.empty(), "census needs at least one state kind");
}

std::uint64_t census_view::count(agent_state state) const {
  PPG_CHECK(state < counts_->size(), "state out of range");
  return (*counts_)[state];
}

std::vector<double> census_view::fractions() const {
  std::vector<double> out(counts_->size());
  for (std::size_t s = 0; s < counts_->size(); ++s) {
    out[s] = static_cast<double>((*counts_)[s]) / static_cast<double>(n_);
  }
  return out;
}

double census_view::fraction(agent_state state) const {
  return static_cast<double>(count(state)) / static_cast<double>(n_);
}

}  // namespace ppg
