// Tests for the dense matrix and LU decomposition.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ppg/linalg/lu.hpp"
#include "ppg/linalg/matrix.hpp"
#include "ppg/util/error.hpp"
#include "ppg/util/rng.hpp"
#include "test_helpers.hpp"

namespace ppg {
namespace {

using testing::from_rows;

TEST(Matrix, ConstructionAndIndexing) {
  matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 0), -2.0);
  EXPECT_THROW((void)m(2, 0), invariant_error);
}

TEST(Matrix, Identity) {
  const auto id = matrix::identity(3);
  EXPECT_DOUBLE_EQ(id(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
}

TEST(Matrix, Arithmetic) {
  const auto a = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  auto diff = from_rows({{5.0, 6.0}, {7.0, 8.0}});
  diff -= a;
  EXPECT_DOUBLE_EQ(diff(1, 1), 4.0);
  EXPECT_THROW(diff -= matrix(3, 2), invariant_error);
  const auto scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, Transpose) {
  const auto a = from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const auto t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, RowStochasticCheck) {
  const auto good = from_rows({{0.5, 0.5}, {0.1, 0.9}});
  EXPECT_TRUE(good.is_row_stochastic());
  const auto bad_sum = from_rows({{0.5, 0.6}, {0.1, 0.9}});
  EXPECT_FALSE(bad_sum.is_row_stochastic());
  const auto negative = from_rows({{-0.5, 1.5}, {0.1, 0.9}});
  EXPECT_FALSE(negative.is_row_stochastic());
}

TEST(Lu, SolvesKnownSystem) {
  const auto a = from_rows({{2.0, 1.0}, {1.0, 3.0}});
  const auto x = solve(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SolveRandomSystemsResidual) {
  rng gen(33);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(2 + trial % 6);
    matrix a(n, n);
    std::vector<double> b(n);
    for (std::size_t r = 0; r < n; ++r) {
      b[r] = gen.next_double() * 2.0 - 1.0;
      for (std::size_t c = 0; c < n; ++c) {
        a(r, c) = gen.next_double() * 2.0 - 1.0;
      }
      a(r, r) += 3.0;  // diagonally dominant, hence well-conditioned
    }
    const auto x = solve(a, b);
    for (std::size_t r = 0; r < n; ++r) {
      double ax = 0.0;
      for (std::size_t c = 0; c < n; ++c) ax += a(r, c) * x[c];
      EXPECT_NEAR(ax, b[r], 1e-9);
    }
  }
}

TEST(Lu, SolveTransposed) {
  const auto a = from_rows({{2.0, 0.0}, {1.0, 3.0}});
  // Solve x A = b  <=>  A^T x = b.
  const auto x = lu_decomposition(a).solve_transposed({5.0, 9.0});
  // x A = (2 x0 + x1, 3 x1) = (5, 9) -> x1 = 3, x0 = 1.
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DeterminantKnownValues) {
  const auto a = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_NEAR(lu_decomposition(a).determinant(), -2.0, 1e-12);
  const auto id = matrix::identity(4);
  EXPECT_NEAR(lu_decomposition(id).determinant(), 1.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  const auto a = from_rows({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_THROW(lu_decomposition{a}, invariant_error);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  const auto a = from_rows({{0.0, 1.0}, {1.0, 0.0}});
  const auto x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, NeumannSeriesIdentity) {
  // (I - dM)^{-1} b = sum (dM)^i b for a stochastic M and d < 1: the
  // identity the exact payoff engine relies on (equation (33)).
  const auto m = from_rows({{0.3, 0.7}, {0.6, 0.4}});
  const double d = 0.8;
  auto a = matrix::identity(2);
  a -= d * m;
  const std::vector<double> b = {1.0, -2.0};
  const auto x = solve(a, b);
  // Partial sums of the series applied to b.
  std::vector<double> partial = b;
  std::vector<double> term = b;
  for (int i = 0; i < 400; ++i) {
    const std::vector<double> previous = term;
    for (std::size_t r = 0; r < 2; ++r) {
      term[r] = d * (m(r, 0) * previous[0] + m(r, 1) * previous[1]);
      partial[r] += term[r];
    }
  }
  EXPECT_NEAR(partial[0], x[0], 1e-8);
  EXPECT_NEAR(partial[1], x[1], 1e-8);
}

}  // namespace
}  // namespace ppg
