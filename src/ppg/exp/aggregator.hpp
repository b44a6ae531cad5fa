// The aggregator for vector-valued batch-replication results: per-coordinate
// summaries of censuses, level distributions or time-aligned trajectories.
// Scalar results (convergence times, payoffs) fold into a running_summary.
//
// The batch runner folds replicas into it in replica order on one thread,
// so every aggregate is independent of the worker count.
#pragma once

#include <cstddef>
#include <vector>

#include "ppg/stats/summary.hpp"

namespace ppg {

/// Aggregates fixed-length real vectors (censuses, level distributions,
/// trajectories on a shared time grid) coordinate by coordinate. The length
/// is fixed by the first add.
class census_aggregator {
 public:
  /// One replica's census.
  void add(const std::vector<double>& census);

  /// Replicas aggregated so far.
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] std::size_t dimensions() const { return coords_.size(); }

  /// Per-coordinate means: the batch estimate of E[census].
  [[nodiscard]] std::vector<double> mean() const;

  /// Per-coordinate normal-approximation CI half-widths across replicas.
  [[nodiscard]] std::vector<double> ci_half_width(double z = 1.96) const;

 private:
  std::vector<running_summary> coords_;
};

}  // namespace ppg
