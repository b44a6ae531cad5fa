// Small builders shared by several test suites: a dense matrix from nested
// rows and a multinomial draw returned as a vector.
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/linalg/matrix.hpp"
#include "ppg/stats/discrete_sampling.hpp"
#include "ppg/util/error.hpp"
#include "ppg/util/rng.hpp"

namespace ppg::testing {

/// The matrix whose r-th row is rows[r]; every row must have equal length.
inline matrix from_rows(const std::vector<std::vector<double>>& rows) {
  PPG_CHECK(!rows.empty(), "matrix needs at least one row");
  matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    PPG_CHECK(rows[r].size() == m.cols(), "ragged matrix rows");
    for (std::size_t c = 0; c < rows[r].size(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

/// Multinomial(m, probs) counts, drawn through the library's pointer form.
inline std::vector<std::uint64_t> draw_multinomial(
    std::uint64_t m, const std::vector<double>& probs, rng& gen) {
  std::vector<std::uint64_t> counts(probs.size());
  sample_multinomial(m, probs.data(), probs.size(), gen, counts.data());
  return counts;
}

}  // namespace ppg::testing
