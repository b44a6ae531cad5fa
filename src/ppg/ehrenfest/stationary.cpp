#include "ppg/ehrenfest/stationary.hpp"

#include "ppg/stats/discrete_sampling.hpp"
#include "ppg/stats/distributions.hpp"
#include "ppg/util/error.hpp"

namespace ppg {

std::vector<double> ehrenfest_stationary_probs(
    const ehrenfest_params& params) {
  PPG_CHECK(params.valid(), "invalid Ehrenfest parameters");
  return geometric_weights(params.k, params.lambda());
}

double ehrenfest_stationary_pmf(const ehrenfest_params& params,
                                const std::vector<std::uint64_t>& x) {
  return multinomial_pmf(params.m, ehrenfest_stationary_probs(params), x);
}

std::vector<double> ehrenfest_stationary_mean(
    const ehrenfest_params& params) {
  return multinomial_mean(params.m, ehrenfest_stationary_probs(params));
}

std::vector<std::uint64_t> sample_ehrenfest_stationary(
    const ehrenfest_params& params, rng& gen) {
  const std::vector<double> probs = ehrenfest_stationary_probs(params);
  std::vector<std::uint64_t> counts(probs.size());
  sample_multinomial(params.m, probs.data(), probs.size(), gen, counts.data());
  return counts;
}

}  // namespace ppg
