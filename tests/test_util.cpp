// Tests for the utility layer: error handling, the deterministic RNG, and
// the table/format helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "ppg/util/error.hpp"
#include "ppg/util/rng.hpp"
#include "ppg/util/table.hpp"
#include "ppg/util/timer.hpp"

namespace ppg {
namespace {

TEST(Error, CheckThrowsWithContext) {
  try {
    PPG_CHECK(1 == 2, "one is not two");
    FAIL() << "PPG_CHECK did not throw";
  } catch (const invariant_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(PPG_CHECK(true, "fine"));
}

TEST(Rng, DeterministicForFixedSeed) {
  rng a(42);
  rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, GoldenReferenceValues) {
  // Frozen outputs of xoshiro256** seeded via splitmix64(12345). These pin
  // down cross-platform bit-reproducibility of every simulation in the
  // repository; if this test ever fails, all recorded experiment numbers
  // must be considered stale.
  rng g(12345);
  EXPECT_EQ(g(), 13720838825685603483ull);
  EXPECT_EQ(g(), 2398916695208396998ull);
  EXPECT_EQ(g(), 17770384849984869256ull);
  EXPECT_EQ(g(), 891717726879801395ull);
  rng h(12345);
  EXPECT_EQ(h.next_below(1000), 743u);
  EXPECT_EQ(h.next_below(1000), 130u);
  rng d(12345);
  EXPECT_DOUBLE_EQ(d.next_double(), 0.74380816315658937);
  EXPECT_DOUBLE_EQ(d.next_double(), 0.13004553462783452);
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a(1);
  rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  rng gen(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(gen.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  rng gen(7);
  EXPECT_THROW((void)gen.next_below(0), invariant_error);
}

TEST(Rng, NextBelowIsApproximatelyUniform) {
  rng gen(11);
  constexpr std::uint64_t bound = 5;
  constexpr int trials = 100000;
  std::array<int, bound> counts{};
  for (int i = 0; i < trials; ++i) {
    ++counts[gen.next_below(bound)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / 5.0, 600.0);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  rng gen(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  rng gen(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(gen.next_bernoulli(0.0));
    EXPECT_TRUE(gen.next_bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  rng gen(13);
  int hits = 0;
  constexpr int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (gen.next_bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatches) {
  rng gen(17);
  const double p = 0.2;
  double sum = 0.0;
  constexpr int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(gen.next_geometric(p));
  }
  // Mean of failures-before-success geometric: (1-p)/p = 4.
  EXPECT_NEAR(sum / trials, (1.0 - p) / p, 0.1);
}

TEST(Rng, GeometricWithPOneIsZero) {
  rng gen(19);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(gen.next_geometric(1.0), 0u);
  }
}

TEST(Rng, GeometricSmallPKeepsItsMean) {
  // p small enough that a naive log(1-p) would lose precision; the log1p
  // inversion must keep the mean at (1-p)/p ~ 1e6.
  rng gen(20);
  const double p = 1e-6;
  double sum = 0.0;
  constexpr int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(gen.next_geometric(p));
  }
  EXPECT_NEAR(sum / trials / 1e6, 1.0, 0.05);
}

TEST(Rng, GeometricTinyPClampsInsteadOfOverflowing) {
  // For p ~ 1e-300 the inversion exceeds the 64-bit range on essentially
  // every draw; the cast must be clamped (UB before the fix), and the
  // clamped value is the largest representable skip count.
  rng gen(21);
  for (int i = 0; i < 100; ++i) {
    const auto skips = gen.next_geometric(1e-300);
    EXPECT_GE(skips, std::uint64_t{1} << 62);
  }
  // p just past the clamp threshold still produces in-range finite draws.
  rng gen2(22);
  for (int i = 0; i < 1000; ++i) {
    (void)gen2.next_geometric(1e-12);
  }
}

TEST(Rng, NanProbabilitiesAreRejected) {
  rng gen(3);
  // NaN comparisons are false, so next_bernoulli(NaN) must not return true;
  // geometric with NaN must throw via its range check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(gen.next_bernoulli(nan));
  EXPECT_THROW((void)gen.next_geometric(nan), invariant_error);
}

TEST(Rng, SplitProducesIndependentStream) {
  rng gen(23);
  rng child = gen.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (gen() == child()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Table, AlignsAndCounts) {
  text_table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream out;
  t.print(out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("value"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  text_table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), invariant_error);
}

TEST(Format, FixedAndScientific) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
  EXPECT_NE(fmt_sci(12345.0).find('e'), std::string::npos);
}

TEST(Format, CountGrouping) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1_000");
  EXPECT_EQ(fmt_count(1234567), "1_234_567");
}

TEST(Timer, MeasuresNonNegativeTime) {
  timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.seconds(), 0.0);
}

}  // namespace
}  // namespace ppg
