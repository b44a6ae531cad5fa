#include "ppg/linalg/matrix.hpp"

#include <cmath>

namespace ppg {

matrix::matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  PPG_CHECK(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

matrix matrix::identity(std::size_t n) {
  matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
  }
  return m;
}

matrix& matrix::operator-=(const matrix& other) {
  PPG_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
            "matrix shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= other.data_[i];
  }
  return *this;
}

matrix& matrix::operator*=(double scalar) {
  for (auto& x : data_) {
    x *= scalar;
  }
  return *this;
}

matrix matrix::transposed() const {
  matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

bool matrix::is_row_stochastic(double tol) const {
  for (const double x : data_) {
    if (x < -tol) return false;
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) sum += data_[r * cols_ + c];
    if (std::abs(sum - 1.0) > tol) return false;
  }
  return true;
}

matrix operator*(double scalar, matrix m) {
  m *= scalar;
  return m;
}

}  // namespace ppg
