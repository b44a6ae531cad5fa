// Census trace recording: accumulates (interaction count, census) rows
// during a simulation and writes them as CSV for external plotting. Used by
// the examples and by downstream users who want the raw trajectories behind
// the bench tables.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ppg/pp/engine.hpp"

namespace ppg {

class census_recorder {
 public:
  /// `column_names` labels the census entries (one per state); the CSV
  /// header becomes "interactions,parallel_time,<column_names...>".
  explicit census_recorder(std::vector<std::string> column_names);

  /// Records the current census of any engine (agent, census or
  /// multibatch).
  void record(const sim_engine& sim);

  /// Records an explicit row (for count-chain simulations without a
  /// simulation object). `n` is the population size used for parallel time.
  void record(std::uint64_t interactions, std::size_t n,
              const std::vector<std::uint64_t>& counts);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// One recorded row.
  struct row {
    std::uint64_t interactions = 0;
    double parallel_time = 0.0;
    std::vector<std::uint64_t> counts;
  };
  [[nodiscard]] const std::vector<row>& rows() const { return rows_; }

  /// Writes the full trace as CSV.
  void write_csv(std::ostream& out) const;

 private:
  std::vector<std::string> column_names_;
  std::vector<row> rows_;
};

}  // namespace ppg
