// Tests for the integer-simplex enumeration and ranking.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "ppg/ehrenfest/simplex.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

std::uint64_t binom(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < k; ++i) {
    result = result * (n - i) / (i + 1);
  }
  return result;
}

TEST(Simplex, SizeMatchesStarsAndBars) {
  for (std::size_t k = 1; k <= 5; ++k) {
    for (std::uint64_t m = 1; m <= 8; ++m) {
      const simplex_index index(k, m);
      EXPECT_EQ(index.size(), binom(m + k - 1, k - 1))
          << "k=" << k << " m=" << m;
    }
  }
}

TEST(Simplex, FirstAndEnumeration) {
  const simplex_index index(3, 2);
  auto x = index.first();
  EXPECT_EQ(x, (std::vector<std::uint64_t>{0, 0, 2}));
  std::vector<std::vector<std::uint64_t>> all;
  do {
    all.push_back(x);
  } while (index.next(x));
  EXPECT_EQ(all.size(), index.size());
  // Lexicographically sorted and distinct.
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1], all[i]);
  }
  EXPECT_EQ(all.back(), (std::vector<std::uint64_t>{2, 0, 0}));
}

TEST(Simplex, EveryCompositionSumsToM) {
  const simplex_index index(4, 5);
  auto x = index.first();
  do {
    EXPECT_EQ(std::accumulate(x.begin(), x.end(), std::uint64_t{0}), 5u);
  } while (index.next(x));
}

TEST(Simplex, RankUnrankRoundTrip) {
  const simplex_index index(4, 6);
  for (std::size_t r = 0; r < index.size(); ++r) {
    const auto x = index.unrank(r);
    EXPECT_EQ(index.rank(x), r);
  }
}

TEST(Simplex, RankMatchesEnumerationOrder) {
  const simplex_index index(3, 7);
  auto x = index.first();
  std::size_t expected_rank = 0;
  do {
    EXPECT_EQ(index.rank(x), expected_rank);
    ++expected_rank;
  } while (index.next(x));
}

TEST(Simplex, RanksAreDistinct) {
  const simplex_index index(5, 4);
  std::set<std::size_t> ranks;
  auto x = index.first();
  do {
    ranks.insert(index.rank(x));
  } while (index.next(x));
  EXPECT_EQ(ranks.size(), index.size());
}

TEST(Simplex, DegenerateOnePart) {
  const simplex_index index(1, 5);
  EXPECT_EQ(index.size(), 1u);
  auto x = index.first();
  EXPECT_EQ(x, (std::vector<std::uint64_t>{5}));
  EXPECT_FALSE(index.next(x));
  EXPECT_EQ(index.rank({5}), 0u);
}

TEST(Simplex, InvalidInputsThrow) {
  const simplex_index index(3, 4);
  EXPECT_THROW((void)index.rank({1, 1, 1}), invariant_error);  // sums to 3
  EXPECT_THROW((void)index.rank({4, 0}), invariant_error);     // wrong length
  EXPECT_THROW((void)index.unrank(index.size()), invariant_error);
  EXPECT_THROW(simplex_index(8, 100), invariant_error);  // too large
}

TEST(Simplex, LargeSpaceWithinBudgetWorks) {
  // C(40+3-1, 2) = 861 states: trivially fine.
  const simplex_index index(3, 40);
  EXPECT_EQ(index.size(), binom(42, 2));
  const auto x = index.unrank(index.size() - 1);
  EXPECT_EQ(x, (std::vector<std::uint64_t>{40, 0, 0}));
}

}  // namespace
}  // namespace ppg
