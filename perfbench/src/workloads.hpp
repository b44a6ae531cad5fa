// The perfbench workloads and the per-layer probes of the traced run.
// See perfbench/README.md for why each workload exists and which layer
// metric is meant to move which end-to-end metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "ppg/util/json.hpp"

namespace perfbench {

/// The interaction slice every engine loop advances by: ppg-serve's default
/// scheduler chunk, so a slice is what one serve scheduler task runs.
inline constexpr std::uint64_t serve_chunk = std::uint64_t{1} << 16;

/// What the layer probes need to know about a workload: the recipes its
/// engines run, the serve request shape replayed for them, and the
/// census and round size the measured loop actually produced (the samplers
/// are timed at those parameters).
struct probe_input {
  std::vector<ppg::json> recipes;   ///< sim_recipe documents, in use order
  std::uint64_t seed = 1;
  std::uint64_t advance_budget = serve_chunk;  ///< interactions per advance
  std::uint64_t advances_per_cycle = 8;
  std::uint64_t cycles = 3;
  std::vector<std::uint64_t> census;  ///< a census the loop produced
  double interactions_per_round = 0;  ///< the loop's mean round size
  /// False when the workload itself ran through batch_runner (its
  /// exp.batch.* values are already recorded).
  bool probe_batch = true;
};

/// hawk_dove_1e8, logit_q8_1e8 and igt_ensemble.
void run_engine_workload(const options& opts, report& out, tracer& trace);

/// The traced run's layer probes (stats samplers, kernel compile, JSON,
/// atomic file, in-process serve_app replay, scheduler, batch runner).
void run_layer_probes(const options& opts, const probe_input& input,
                      report& out, tracer& trace);

}  // namespace perfbench
