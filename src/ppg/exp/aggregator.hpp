// Aggregators for batch-replication results: per-coordinate summaries of
// censuses, scalar summaries (convergence times, payoffs), and time-aligned
// trajectory bands.
//
// The batch runner folds replicas into them in replica order on one thread,
// so every aggregate is independent of the worker count.
#pragma once

#include <cstddef>
#include <vector>

#include "ppg/stats/summary.hpp"

namespace ppg {

/// Aggregates fixed-length real vectors (censuses, level distributions)
/// coordinate by coordinate. The length is fixed by the first add.
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

/// Aggregates one scalar per replica (a convergence time, a payoff, a TV
/// distance): mean/CI via Welford. It keeps no samples; a caller that needs
/// a quantile keeps its own and calls lower_quantile.
class scalar_aggregator {
 public:
  void add(double value) { summary_.add(value); }

  [[nodiscard]] std::size_t count() const { return summary_.count(); }
  [[nodiscard]] double mean() const { return summary_.mean(); }
  [[nodiscard]] double std_error() const { return summary_.std_error(); }
  [[nodiscard]] double ci_half_width(double z = 1.96) const {
    return summary_.ci_half_width(z);
  }
  [[nodiscard]] double max() const { return summary_.max(); }

 private:
  running_summary summary_;
};

/// Aggregates per-replica trajectories sampled at identical time points
/// (payoff or generosity traces): a mean curve with a CI band. The length is
/// fixed by the first add; every trajectory must match it.
class trajectory_aggregator {
 public:
  void add(const std::vector<double>& trajectory);

  [[nodiscard]] std::size_t count() const { return curve_.count(); }
  [[nodiscard]] std::size_t points() const { return curve_.dimensions(); }
  [[nodiscard]] std::vector<double> mean_curve() const { return curve_.mean(); }
  [[nodiscard]] std::vector<double> ci_band(double z = 1.96) const {
    return curve_.ci_half_width(z);
  }

 private:
  census_aggregator curve_;
};

}  // namespace ppg
