#include "ppg/linalg/lu.hpp"

#include <cmath>
#include <numeric>

namespace ppg {

lu_decomposition::lu_decomposition(matrix a)
    : original_(a), lu_(std::move(a)) {
  PPG_CHECK(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest remaining entry in this column.
    std::size_t pivot = col;
    double best = std::abs(lu_(perm_[col], col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double candidate = std::abs(lu_(perm_[r], col));
      if (candidate > best) {
        best = candidate;
        pivot = r;
      }
    }
    PPG_CHECK(best > 1e-300, "matrix is numerically singular");
    if (pivot != col) {
      std::swap(perm_[pivot], perm_[col]);
      pivot_sign_ = -pivot_sign_;
    }
    const double diag = lu_(perm_[col], col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(perm_[r], col) / diag;
      lu_(perm_[r], col) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) {
        lu_(perm_[r], c) -= factor * lu_(perm_[col], c);
      }
    }
  }
}

std::vector<double> lu_decomposition::solve(std::vector<double> b) const {
  const std::size_t n = lu_.rows();
  PPG_CHECK(b.size() == n, "rhs size mismatch in LU solve");
  // Forward substitution with the permuted rows (L has unit diagonal).
  std::vector<double> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    double sum = b[perm_[r]];
    for (std::size_t c = 0; c < r; ++c) {
      sum -= lu_(perm_[r], c) * y[c];
    }
    y[r] = sum;
  }
  // Back substitution through U.
  std::vector<double> x(n);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = y[ri];
    for (std::size_t c = ri + 1; c < n; ++c) {
      sum -= lu_(perm_[ri], c) * x[c];
    }
    x[ri] = sum / lu_(perm_[ri], ri);
  }
  return x;
}

std::vector<double> lu_decomposition::solve_transposed(
    const std::vector<double>& b) const {
  return lu_decomposition(original_.transposed()).solve(b);
}

double lu_decomposition::determinant() const {
  double det = pivot_sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) {
    det *= lu_(perm_[i], i);
  }
  return det;
}

std::vector<double> solve(const matrix& a, const std::vector<double>& b) {
  return lu_decomposition(a).solve(b);
}

}  // namespace ppg
