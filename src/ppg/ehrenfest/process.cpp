#include "ppg/ehrenfest/process.hpp"

#include <numeric>

#include "ppg/util/error.hpp"

namespace ppg {

ehrenfest_process::ehrenfest_process(ehrenfest_params params,
                                     std::vector<std::uint64_t> initial_counts)
    : params_(params), counts_(std::move(initial_counts)) {
  PPG_CHECK(params_.valid(), "invalid Ehrenfest parameters");
  PPG_CHECK(counts_.size() == params_.k, "counts size must equal k");
  const std::uint64_t total =
      std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
  PPG_CHECK(total == params_.m, "counts must sum to m");
}

ehrenfest_process ehrenfest_process::at_corner(ehrenfest_params params,
                                               bool top) {
  std::vector<std::uint64_t> counts(params.k, 0);
  counts[top ? params.k - 1 : 0] = params.m;
  return ehrenfest_process(params, std::move(counts));
}

void ehrenfest_process::step(rng& gen) {
  // Sample a ball uniformly (equivalently, an urn proportional to load).
  std::uint64_t ball = gen.next_below(params_.m);
  std::size_t urn = 0;
  while (ball >= counts_[urn]) {
    ball -= counts_[urn];
    ++urn;
  }
  const double u = gen.next_double();
  if (u < params_.a) {
    if (urn + 1 < params_.k) {
      --counts_[urn];
      ++counts_[urn + 1];
    }
  } else if (u < params_.a + params_.b) {
    if (urn > 0) {
      --counts_[urn];
      ++counts_[urn - 1];
    }
  }
  ++time_;
}

}  // namespace ppg
