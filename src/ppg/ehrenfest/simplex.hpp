// Enumeration and ranking of the integer simplex ∆^m_k (the Ehrenfest state
// space). Supports exact chain analysis: building the full transition
// operator, exact stationary vectors, and TV-decay curves for small (k, m).
//
// States are ordered lexicographically; rank/unrank use the combinatorial
// number system over compositions ("stars and bars").
#pragma once

#include <cstdint>
#include <vector>

namespace ppg {

class simplex_index {
 public:
  /// Requires C(m+k-1, k-1) to fit comfortably in memory; checked against
  /// `max_size`.
  simplex_index(std::size_t k, std::uint64_t m,
                std::size_t max_size = 20'000'000);

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::uint64_t m() const { return m_; }

  /// Number of states |∆^m_k| = C(m+k-1, k-1).
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Lexicographic rank of a composition (must sum to m and have length k).
  [[nodiscard]] std::size_t rank(const std::vector<std::uint64_t>& x) const;

  /// Inverse of rank().
  /// Planned production use: ROADMAP item 11's exact-law oracle.
  [[nodiscard]] std::vector<std::uint64_t> unrank(std::size_t index) const;

  /// First composition in lexicographic order: (0, 0, ..., m).
  [[nodiscard]] std::vector<std::uint64_t> first() const;

  /// Advances to the next composition in lexicographic order; returns false
  /// when x was the last one ((m, 0, ..., 0)).
  [[nodiscard]] bool next(std::vector<std::uint64_t>& x) const;

 private:
  std::size_t k_;
  std::uint64_t m_;
  std::size_t size_;
  // table_[p][t] = number of compositions of t into p parts.
  std::vector<std::vector<std::uint64_t>> table_;
};

}  // namespace ppg
