#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/math.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/time.h"

namespace frap::util {
namespace {

// ------------------------------------------------------------------- Rng ---

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, Uniform01MeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.5, 7.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(RngTest, UniformIntCoversFullRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_int(0, 9);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, 9);
    if (x == 0) saw_lo = true;
    if (x == 9) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(4, 4), 4);
  }
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(13);
  const double mean = 0.02;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(mean);
  EXPECT_NEAR(sum / n, mean, mean * 0.02);
}

TEST(RngTest, ExponentialIsPositive) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.exponential(1.0), 0.0);
  }
}

TEST(RngTest, ExponentialVarianceMatches) {
  // Var of Exp(mean) is mean^2.
  Rng rng(19);
  const double mean = 1.5;
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(mean);
    sum += x;
    sum2 += x * x;
  }
  const double m = sum / n;
  const double var = sum2 / n - m * m;
  EXPECT_NEAR(var, mean * mean, mean * mean * 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerate) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(37);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

// ------------------------------------------------------------------ math ---

TEST(MathTest, AlmostEqualBasics) {
  EXPECT_TRUE(almost_equal(1.0, 1.0));
  EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-13));
  EXPECT_FALSE(almost_equal(1.0, 1.001));
  EXPECT_TRUE(almost_equal(0.0, 0.0));
  EXPECT_TRUE(almost_equal(1e-13, 0.0));
}

TEST(MathTest, AlmostEqualRelative) {
  EXPECT_TRUE(almost_equal(1e9, 1e9 * (1 + 1e-10)));
  EXPECT_FALSE(almost_equal(1e9, 1e9 * 1.001));
}

TEST(TimeTest, UnitsCompose) {
  EXPECT_DOUBLE_EQ(20 * kMilli, 0.02);
  EXPECT_DOUBLE_EQ(5 * kMicro, 5e-6);
  EXPECT_DOUBLE_EQ(1 * kSec, 1.0);
}

TEST(TimeTest, TimeClose) {
  EXPECT_TRUE(time_close(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(time_close(1.0, 1.1));
}

// ----------------------------------------------------------------- table ---

TEST(TableTest, FormatsAlignedColumns) {
  Table t({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(Table::fmt(0.58578, 3), "0.586");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
  EXPECT_EQ(Table::fmt(0.93055, 2), "0.93");
}

}  // namespace
}  // namespace frap::util
