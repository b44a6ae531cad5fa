#include "ppg/ehrenfest/simplex.hpp"

#include <numeric>

#include "ppg/util/error.hpp"

namespace ppg {

simplex_index::simplex_index(std::size_t k, std::uint64_t m,
                             std::size_t max_size)
    : k_(k), m_(m) {
  PPG_CHECK(k >= 1, "simplex needs at least one part");
  // Build the composition-count table by the Pascal recurrence
  // N(p, t) = N(p-1, t) + N(p, t-1), N(1, t) = 1.
  table_.assign(k + 1, std::vector<std::uint64_t>(m + 1, 0));
  for (std::uint64_t t = 0; t <= m; ++t) {
    table_[1][t] = 1;
  }
  for (std::size_t p = 2; p <= k; ++p) {
    table_[p][0] = 1;
    for (std::uint64_t t = 1; t <= m; ++t) {
      const std::uint64_t sum = table_[p - 1][t] + table_[p][t - 1];
      PPG_CHECK(sum >= table_[p - 1][t], "composition count overflow");
      table_[p][t] = sum;
    }
  }
  PPG_CHECK(table_[k][m] <= max_size,
            "simplex too large for exact enumeration");
  size_ = static_cast<std::size_t>(table_[k][m]);
}

std::size_t simplex_index::rank(const std::vector<std::uint64_t>& x) const {
  PPG_CHECK(x.size() == k_, "composition length mismatch");
  const std::uint64_t total =
      std::accumulate(x.begin(), x.end(), std::uint64_t{0});
  PPG_CHECK(total == m_, "composition must sum to m");
  // Lexicographic rank: count compositions whose first differing coordinate
  // is smaller.
  std::uint64_t rank = 0;
  std::uint64_t remaining = m_;
  for (std::size_t i = 0; i + 1 < k_; ++i) {
    // Compositions with prefix x_1..x_{i-1} and i-th coordinate v < x_i:
    // the suffix (k - i - 1 parts) holds remaining - v.
    for (std::uint64_t v = 0; v < x[i]; ++v) {
      rank += table_[k_ - i - 1][remaining - v];
    }
    remaining -= x[i];
  }
  return static_cast<std::size_t>(rank);
}

std::vector<std::uint64_t> simplex_index::unrank(std::size_t index) const {
  PPG_CHECK(index < size_, "rank out of range");
  std::vector<std::uint64_t> x(k_, 0);
  std::uint64_t remaining = m_;
  std::uint64_t rest = index;
  for (std::size_t i = 0; i + 1 < k_; ++i) {
    std::uint64_t v = 0;
    while (true) {
      const std::uint64_t block = table_[k_ - i - 1][remaining - v];
      if (rest < block) break;
      rest -= block;
      ++v;
    }
    x[i] = v;
    remaining -= v;
  }
  x[k_ - 1] = remaining;
  return x;
}

std::vector<std::uint64_t> simplex_index::first() const {
  std::vector<std::uint64_t> x(k_, 0);
  x[k_ - 1] = m_;
  return x;
}

bool simplex_index::next(std::vector<std::uint64_t>& x) const {
  PPG_CHECK(x.size() == k_, "composition length mismatch");
  // Lexicographic successor: find the rightmost position before the last
  // coordinate that can be incremented by pulling mass from the tail.
  if (k_ == 1) return false;
  // Find rightmost i < k-1 with some mass strictly to its right.
  std::uint64_t tail = x[k_ - 1];
  for (std::size_t ip1 = k_ - 1; ip1 >= 1; --ip1) {
    const std::size_t i = ip1 - 1;
    if (tail > 0) {
      // Increment x_i, set x_{i+1..k-2} to 0, dump the rest into the tail.
      const std::uint64_t moved = tail - 1;
      x[i] += 1;
      for (std::size_t j = i + 1; j < k_; ++j) {
        x[j] = 0;
      }
      x[k_ - 1] = moved;
      return true;
    }
    tail += x[i];
  }
  return false;
}

}  // namespace ppg
