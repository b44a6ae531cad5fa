// LU decomposition with partial pivoting; powers the exact repeated-game
// payoff oracle (solving against I - delta*M) and small-chain stationary
// computations.
#pragma once

#include <vector>

#include "ppg/linalg/matrix.hpp"

namespace ppg {

/// LU factorization P*A = L*U with partial pivoting. Throws invariant_error
/// if the matrix is numerically singular. Keeps a copy of A so transposed
/// systems can be solved exactly; matrices in this library are small, so the
/// duplicate storage is irrelevant.
class lu_decomposition {
 public:
  explicit lu_decomposition(matrix a);

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const;

  /// Solves x A = b (i.e. A^T x = b), needed for row-vector systems such as
  /// q1 (I - delta M)^{-1}.
  [[nodiscard]] std::vector<double> solve_transposed(
      const std::vector<double>& b) const;

  /// Determinant from the diagonal of U and the pivot parity.
  [[nodiscard]] double determinant() const;

 private:
  matrix original_;
  matrix lu_;                      // packed L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation
  int pivot_sign_ = 1;
};

/// Convenience: solves A x = b in one call.
[[nodiscard]] std::vector<double> solve(const matrix& a,
                                        const std::vector<double>& b);

}  // namespace ppg
