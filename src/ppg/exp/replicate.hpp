// One-call replicate-and-reduce entry points: the two shapes every
// Monte-Carlo driver in bench/ and examples/ needs. Each runs R replicas on
// a batch_runner and folds them, in replica order, into a running_summary
// (scalar results) or a census_aggregator (fixed-length vectors).
//
//   auto agg = replicate_scalar(opts, [&](const replica_context&, rng& gen) {
//     const auto run = simulate_corner_coupling(params, budget, gen);
//     return static_cast<double>(run.coupling_time);  // one replica
//   });
//   agg.mean(); agg.ci_half_width(); agg.max();
//
// These entry points run each replica to completion inside its body.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ppg/exp/aggregator.hpp"
#include "ppg/exp/batch_runner.hpp"
#include "ppg/pp/engine.hpp"

namespace ppg {

/// Replicates a scalar-valued experiment (body returns double).
template <typename Body>
[[nodiscard]] running_summary replicate_scalar(const batch_options& opts,
                                               Body&& body) {
  running_summary agg;
  batch_runner(opts).run_into(std::forward<Body>(body), agg);
  return agg;
}

/// Replicates a vector-valued experiment (body returns std::vector<double>
/// of a fixed length: a census, or one replica's trace on a time grid
/// shared by every replica).
template <typename Body>
[[nodiscard]] census_aggregator replicate_census(const batch_options& opts,
                                                 Body&& body) {
  census_aggregator agg;
  batch_runner(opts).run_into(std::forward<Body>(body), agg);
  return agg;
}

/// The stationary-census measurement every E-series bench shares, phrased
/// over the engine API: each replica builds a fresh engine of `kind` from
/// `spec`, burns `burn` interactions, then steps `samples` times, averaging
/// `project(census)` (a fixed-length vector) over the sampled interactions.
/// With engine_kind::census this runs the measurement entirely at the
/// count-vector level — same law as the agent engine, far faster.
template <typename Project>
[[nodiscard]] census_aggregator replicate_time_averaged_census(
    const sim_spec& spec, engine_kind kind, std::uint64_t burn,
    std::uint64_t samples, const batch_options& opts, Project&& project) {
  PPG_CHECK(samples > 0, "need at least one sampled interaction");
  return replicate_census(opts, [&](const replica_context&, rng& gen) {
    const auto engine = spec.make_engine(kind, gen);
    engine->run(burn);
    std::vector<double> mean;
    for (std::uint64_t i = 0; i < samples; ++i) {
      engine->step();
      const std::vector<double> value = project(engine->census());
      if (mean.empty()) mean.assign(value.size(), 0.0);
      PPG_CHECK(value.size() == mean.size(),
                "projection width must be constant across samples");
      for (std::size_t j = 0; j < value.size(); ++j) {
        mean[j] += value[j];
      }
    }
    for (auto& x : mean) {
      x /= static_cast<double>(samples);
    }
    return mean;
  });
}

}  // namespace ppg
