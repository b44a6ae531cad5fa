// Dense row-major matrix with the small set of operations the library needs:
// in-place subtraction and scaling, transposition, and checked element
// access. No external BLAS/LAPACK dependency — matrices here are small (4x4
// round chains, modest exact state spaces).
#pragma once

#include <cstddef>
#include <vector>

#include "ppg/util/error.hpp"

namespace ppg {

class matrix {
 public:
  matrix() = default;
  matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Identity matrix of the given size.
  static matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    PPG_CHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    PPG_CHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Unchecked access for hot loops (exact chain evolution).
  [[nodiscard]] double at_unchecked(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  matrix& operator-=(const matrix& other);
  matrix& operator*=(double scalar);

  [[nodiscard]] matrix transposed() const;

  /// True if every row sums to 1 within tol and all entries >= -tol.
  /// Test oracle: test_exact_payoff checks the exact payoff engine's round
  /// chain with it.
  [[nodiscard]] bool is_row_stochastic(double tol = 1e-9) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] matrix operator*(double scalar, matrix m);

}  // namespace ppg
